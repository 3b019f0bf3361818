"""Deterministic random streams.

Every random quantity in this package is drawn from a keyed counter-based
generator (Philox 4x64) so that any run is reproducible from a single master
seed and so that independent streams can be derived without coordination.

Stream derivation
-----------------
A stream is identified by ``(master_seed, run, role, entity)`` and is backed
by ``numpy.random.Philox`` with the 128-bit key::

    key[0] = master_seed                      (uint64)
    key[1] = run * 2**24 + role * 2**16 + entity

with ``run < 2**40``, ``role < 2**8`` and ``entity < 2**16``. Packing is
collision-free within those ranges, which are enforced.

Roles (``Role``): TOPOLOGY (random graphs), WAKE (one uniform per
node-slot), SEND_LOSS and SEND_DELAY (one uniform per arc-slot each),
GRAD_NOISE, BASELINE_NOISE, DATASET and INIT (initial values). The
schedule roles WAKE, SEND_LOSS and SEND_DELAY are opened only where the
fault bounds leave that outcome to chance (see ``faultnet.ScheduleDraws``):
a synchronous lossless run opens none of them.

Every stream emits only float64 uniforms on [0, 1) via ``Generator.random``,
one 64-bit word per variate, filled in C (row-major) order of the requested
shape. Consecutive calls continue the same sequence, so chunked consumption
is equivalent to one bulk draw. Derived variates (Bernoulli outcomes,
bounded integer delays, box noise) are arithmetic functions of these
uniforms; no other generator methods are used in simulation paths.
"""

from __future__ import annotations

import enum

import numpy as np

_RUN_LIMIT = 1 << 40
_ROLE_LIMIT = 1 << 8
_ENTITY_LIMIT = 1 << 16


class Role(enum.IntEnum):
    """Stream roles. Values are part of the reproducibility contract."""

    TOPOLOGY = 0
    WAKE = 1
    SEND_LOSS = 2
    SEND_DELAY = 3
    GRAD_NOISE = 4
    BASELINE_NOISE = 5
    DATASET = 6
    INIT = 7


def stream(master_seed: int, run: int = 0, role: Role | int = 0,
           entity: int = 0) -> np.random.Generator:
    """Return the Generator for one (master_seed, run, role, entity) stream."""
    master_seed = int(master_seed)
    run, role, entity = int(run), int(role), int(entity)
    if not 0 <= master_seed < 2 ** 64:
        raise ValueError(f"master seed {master_seed} outside uint64 range")
    if not 0 <= run < _RUN_LIMIT:
        raise ValueError(f"run index {run} outside [0, 2**40)")
    if not 0 <= role < _ROLE_LIMIT:
        raise ValueError(f"role {role} outside [0, 256)")
    if not 0 <= entity < _ENTITY_LIMIT:
        raise ValueError(f"entity {entity} outside [0, 65536)")
    key = np.array([master_seed, (run << 24) + (role << 16) + entity],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_box(u: np.ndarray, half_width: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """Map [0,1) uniforms to the box [-half_width, half_width), into `out`
    if given (which may be u itself)."""
    box = np.multiply(2.0 * half_width, u, out=out)
    box -= half_width
    return box


def uniform_delay(u: np.ndarray, max_delay: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Map [0,1) uniforms to integer delays uniform on {1, ..., max_delay},
    into the int64 array `out` if given."""
    # The product is a double, truncated as it is stored. Truncation is the
    # floor for u >= 0, and the clip maps every other input to the same
    # delay either way.
    if out is None:
        out = np.empty(np.shape(u), dtype=np.int64)
    d = np.multiply(u, max_delay, out=out, casting="unsafe")
    d += 1
    # u == 1.0 never happens; clip guards against pathological inputs only.
    return np.clip(d, 1, max_delay, out=d)
