"""The package's own dependencies: importing pushsim loads numpy, not
scipy or mpmath."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_importing_pushsim_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, pushsim\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'mpmath')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_experiments_and_ratio_studies_load_no_masked_arrays(tmp_path):
    # np.median's NaN check imports numpy.ma, 1.3 MiB resident, on a
    # process's first median; harness.batch_median takes its steps without it
    config = {"name": "one-window", "topology": {"kind": "cycle", "n": 3},
              "faults": {"max_wake_gap": 2, "max_consecutive_losses": 1,
                         "max_transmission_delay": 2, "wake_prob": 0.6,
                         "loss_prob": 0.2},
              "objective": {"kind": "quadratic", "dim": 2},
              "noise_width": 4.0, "horizon": 100, "runs": 4,
              "batch_size": 2, "master_seed": 5, "step_offset": 5}
    (tmp_path / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys\n"
            "from pushsim.harness import (ExperimentConfig, ratio_study,\n"
            "                             run_experiment)\n"
            "cfg = ExperimentConfig.from_file(sys.argv[1] + '/config.json')\n"
            "run_experiment(cfg, sys.argv[1] + '/out')\n"
            "ratio_study(cfg, [2, 3], [100])\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports at its top level and never reads; a name
    listed in ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            used.update(elt.value for elt in stmt.value.elts)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    files = sorted(SRC.glob("pushsim/*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    assert [bad for path in files for bad in unused_imports(path)] == []
