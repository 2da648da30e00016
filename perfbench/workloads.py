"""The benchmark's workloads: seeded request streams of ``repro.Problem``s.

Each workload is a weighted mix of request *kinds*.  A kind fixes the
stencil (or program), grid shape, boundary, iteration count, backend and
the solve policy; the seed fixes which kind each request is and which of a
few pre-generated grids it carries.  The program under test receives only
the generated :class:`repro.Problem` objects.

Mix weights are chosen so that no reported percentile (p50, p90) falls on
the boundary between two kinds' latency bands, which would make it jump
between bands from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import Problem, StencilProgram, make_grid
from repro.stencils import domains

#: Distinct grids per kind: enough that outputs differ between requests,
#: few enough that every reference is computed once and reused.
GRID_VARIANTS = 4

#: Stream draws over which the modelled throughput is computed: fixed, so
#: ``device_gstencil_per_s`` repeats exactly for a seed whatever the run
#: completed.  Not a whole number of decks, so the last, partial deck
#: still follows the seed's draw order.
MODEL_DRAWS = 4001


@dataclass(frozen=True)
class Kind:
    """One request kind of a workload mix."""

    name: str
    weight: float
    stencil: str                 # key of STENCILS, or "chain3" for the program
    shape: Tuple[int, ...]
    iterations: int
    backend: str
    boundary: str = "dirichlet"
    policy: Dict[str, object] = field(default_factory=dict)

    @property
    def is_program(self) -> bool:
        return self.stencil == "chain3"

    def pattern(self):
        return STENCILS[self.stencil]()

    def program(self) -> StencilProgram:
        heat = domains.heat_2d()
        return StencilProgram.chain(
            "chain3", [("a", heat), ("b", heat), ("c", heat)])

    def grid(self, seed: int, variant: int):
        return make_grid(self.shape, kind="random", dtype=np.float64,
                         seed=seed * 1009 + variant * 7919 + _stable_hash(self.name),
                         boundary=self.boundary)


STENCILS = {
    "heat-1d": domains.heat_1d,
    "heat-2d": domains.heat_2d,
    "heat-3d": domains.heat_3d,
    "box-2d9p": lambda: domains.box_average(2, 1, name="box-2d9p"),
    "box-3d27p": lambda: domains.box_average(3, 1, name="box-3d27p"),
}


def _stable_hash(text: str) -> int:
    return sum((i + 1) * ord(ch) for i, ch in enumerate(text)) % 100_003


@dataclass(frozen=True)
class Workload:
    """A named mix plus how it is driven.

    ``mode`` is the :class:`repro.SolvePolicy` mode of the closed loop; a
    kind's own ``policy`` may override it.
    """

    name: str
    why: str
    kinds: Tuple[Kind, ...]
    devices: int
    mode: str
    setup_repeats: int
    #: whether the plain single-threaded numpy baseline is run
    numpy_baseline: bool = False

    def kind(self, name: str) -> Kind:
        for kind in self.kinds:
            if kind.name == name:
                return kind
        raise KeyError(name)


@dataclass(frozen=True)
class Request:
    """One generated request: its kind, grid variant, and the problem
    handed to the program."""

    kind: Kind
    variant: int
    problem: Problem


_HEAT2D_64 = Kind("heat2d-64-numpy", 0.60, "heat-2d", (64, 64), 4, "numpy")

#: direct-small: the small mix, a chain program, and the dominant problem
#: once more through the server (``mode="served"``, one request at a
#: time), so the server's queue, coalescer and dispatch are measured
#: against the same warm problem solved directly.
_SMALL_KINDS = (
    _HEAT2D_64,
    Kind("heat1d-4096-numpy", 0.09, "heat-1d", (4096,), 4, "numpy"),
    Kind("heat3d-24-numpy", 0.06, "heat-3d", (24, 24, 24), 4, "numpy"),
    Kind("box2d9p-64-periodic-tcu", 0.03, "box-2d9p", (64, 64), 4,
         "tcu-sim", boundary="periodic"),
    Kind("heat2d-64-tcu", 0.15, "heat-2d", (64, 64), 4, "tcu-sim"),
    Kind("chain3-64-numpy", 0.04, "chain3", (64, 64), 4, "numpy"),
    replace(_HEAT2D_64, name="heat2d-64-numpy-served", weight=0.03,
            policy={"mode": "served"}),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="direct-small",
            why=("small problems on a warm cache: front door, fingerprint, "
                 "cache lookup, routing and boundary fill dominate the "
                 "cheap sweeps"),
            kinds=_SMALL_KINDS, devices=2, mode="auto", setup_repeats=7),
        Workload(
            name="large-tcu",
            why=("large tcu-sim sweeps: gather, MMA, assemble and boundary "
                 "fill are nearly the whole request; the 3-D box-27 cold "
                 "compile dominates set-up"),
            kinds=(
                Kind("heat2d-512-periodic-tcu", 0.75, "heat-2d", (512, 512),
                     2, "tcu-sim", boundary="periodic"),
                Kind("box3d27p-64-tcu", 0.25, "box-3d27p", (64, 64, 64), 2,
                     "tcu-sim"),
            ),
            devices=1, mode="single", setup_repeats=3, numpy_baseline=True),
        Workload(
            name="sharded-halo",
            why=("cheap numpy sweeps on 4 simulated devices: partitioning, "
                 "halo exchange, the sharded round loops and per-window "
                 "shard plans dominate"),
            kinds=(
                Kind("heat2d-256-periodic-depth2", 0.75, "heat-2d",
                     (256, 256), 4, "numpy", boundary="periodic",
                     policy={"halo_depth": 2}),
                Kind("chain3-256-periodic", 0.25, "chain3", (256, 256), 2,
                     "numpy", boundary="periodic"),
            ),
            devices=4, mode="sharded", setup_repeats=9, numpy_baseline=True),
    )
}


class GridPool:
    """Pre-generated grids per (kind, variant), shared by every request
    and by the verifier's reference cache."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self._grids = {(kind.name, v): kind.grid(seed, v)
                       for kind in workload.kinds
                       for v in range(GRID_VARIANTS)}

    def get(self, kind: Kind, variant: int):
        return self._grids[(kind.name, variant)]


def make_problem(kind: Kind, grid, tag: Optional[str] = None) -> Problem:
    options = {"backend": kind.backend}
    if kind.is_program:
        return Problem(program=kind.program(), grid=grid,
                       iterations=kind.iterations, options=options, tag=tag)
    return Problem(kind.pattern(), grid, kind.iterations, options=options,
                   tag=tag)


def deck(kinds: Tuple[Kind, ...]) -> List[int]:
    """Kind indices in the exact proportions of the weights, over the
    smallest whole number of draws (at most 100) that holds them."""
    for size in range(1, 101):
        counts = [kind.weight * size for kind in kinds]
        if all(abs(c - round(c)) < 1e-9 for c in counts):
            return [i for i, c in enumerate(counts) for _ in range(round(c))]
    raise ValueError("kind weights need a common denominator of at most 100")


def draws(workload: Workload, seed: int) -> Iterator[Tuple[Kind, int]]:
    """The seeded, endless sequence of ``(kind, grid variant)`` draws.

    Draws come as shuffled decks that hold every kind in its exact share,
    so a run of any length sees nearly the weighted mix, whatever the seed:
    the throughput of a mix then measures the program, not the luck of the
    draw.
    """
    cards = np.array(deck(workload.kinds))
    rng = np.random.default_rng(seed)
    while True:
        kind_ids = rng.permutation(cards)
        variants = rng.integers(0, GRID_VARIANTS, size=len(cards))
        for kind_id, variant in zip(kind_ids, variants):
            yield workload.kinds[int(kind_id)], int(variant)


def stream(workload: Workload, seed: int, pool: GridPool) -> Iterator[Request]:
    """Endless stream of fresh :class:`Request` objects for the workload."""
    for kind, variant in draws(workload, seed):
        yield Request(kind, variant,
                      make_problem(kind, pool.get(kind, variant),
                                   tag=kind.name))


def kind_counts(workload: Workload, seed: int, count: int) -> Dict[str, int]:
    """How many of the first ``count`` draws are each kind."""
    counts = {kind.name: 0 for kind in workload.kinds}
    for _, (kind, _variant) in zip(range(count), draws(workload, seed)):
        counts[kind.name] += 1
    return counts


def policy_for(workload: Workload, kind: Kind) -> Dict[str, object]:
    """``session.solve`` keyword policy of one request kind."""
    return {"mode": workload.mode, **kind.policy}

