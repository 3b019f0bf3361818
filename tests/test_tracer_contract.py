"""The benchmark's per-layer tracer wraps pushsim functions by name, from
outside (``perfbench/tracing.py``). A rename or a move that breaks it fails
here, not only in the benchmark's own smoke test."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from pushsim import audit
from pushsim.faultnet import FaultBounds
from pushsim.graph import build_cycle

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_names_defined_on_their_owners_and_restores_them():
    tracer = load_tracing().Tracer()      # reads every wrapped name
    patched = [(owner, attr, wrapper)
               for owners, attr, wrapper in tracer._patches
               for owner in owners]
    assert all(attr in vars(owner) for owner, attr, _ in patched)
    originals = [vars(owner)[attr] for owner, attr, _ in patched]
    tracer.install()
    try:
        for owner, attr, wrapper in patched:
            assert vars(owner)[attr] is wrapper, (owner, attr)
        # an audited run reaches every audit layer through those names
        audit.verify_run(build_cycle(3, bidirectional=True),
                         FaultBounds(3, 3, 3, wake_prob=0.5, loss_prob=0.3),
                         np.arange(6.0).reshape(3, 2), 40, 5)
    finally:
        tracer.uninstall()
    for (owner, attr, _), original in zip(patched, originals):
        assert vars(owner)[attr] is original, (owner, attr)
    names = {span.name for span in tracer.spans}
    assert {"audit.verify_run", "audit.build_delivery_indicators",
            "audit.build_mass_matrix", "audit.run_linear_audit",
            "audit.cross_validate", "engine.run_protocol",
            "faultnet.realize_chunk", "rng.random"} <= names
