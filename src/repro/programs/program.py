"""Multi-stage stencil programs: a named DAG of kernels per time step.

Every layer below this one assumes exactly one kernel per problem.  A
:class:`StencilProgram` lifts the catalog's genuinely multi-kernel
workloads — LBM collide+stream, RK2/RK3 time-steppers, operator-split
advection–diffusion — out of hand-rolled Python loops and into the
compile-once pipeline:

* a :class:`ProgramStage` is one named tensor produced per program step:
  the sum of one stencil kernel applied per *tap* (an input reference —
  ``"state"`` or an earlier stage's name — paired with a
  :class:`~repro.stencils.pattern.StencilPattern`).  A single-tap stage is
  the ordinary one-kernel sweep; a multi-tap stage expresses linear
  combinations like the RK2 update ``u + dt * L(u_mid)``;
* a :class:`StencilProgram` wires stages into a DAG, validated for
  acyclicity, for dangling references and for dead stages, with a
  designated ``output`` stage whose tensor becomes the next step's
  ``"state"``.

Execution semantics (the contract every executor and the golden
:func:`run_program_reference` share): stages run in topological order; each
tap reads a halo-filled copy of its input (filled at the *tap's* radius,
exactly like a single-kernel sweep of that pattern); tap results are summed
in declaration order on the stage-radius interior; the stage tensor keeps
its first tap's halo ring and is then halo-filled at the stage radius.  For
a single-tap chain this reduces, bit for bit, to the classic
fill–sweep–fill loop of the single-device executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

# STATE, the reserved tap reference naming the program's evolving state
# tensor, is the name the single-device walk gives a run's incoming state
from repro.engine.single import STATE
from repro.stencils.boundary import apply_boundary
from repro.stencils.grid import Grid
from repro.stencils.pattern import StencilPattern
from repro.stencils.reference import apply_stencil_reference
from repro.util.validation import require, require_positive_int

__all__ = [
    "STATE",
    "ProgramStage",
    "StencilProgram",
    "run_program_reference",
]


def _as_taps(taps) -> Tuple[Tuple[str, StencilPattern], ...]:
    out: List[Tuple[str, StencilPattern]] = []
    for tap in taps:
        require(isinstance(tap, tuple) and len(tap) == 2,
                f"a tap is a (source, pattern) pair, got {tap!r}")
        source, pattern = tap
        require(isinstance(source, str) and source != "",
                f"tap source must be a non-empty string, got {source!r}")
        require(isinstance(pattern, StencilPattern),
                f"tap pattern must be a StencilPattern, "
                f"got {type(pattern).__name__}")
        out.append((source, pattern))
    return tuple(out)


@dataclass(frozen=True)
class ProgramStage:
    """One named stage of a program: a sum of per-tap kernel applications.

    ``taps`` is an ordered tuple of ``(source, pattern)`` pairs; the stage
    tensor's interior (at the stage radius — the maximum tap radius) is the
    declaration-ordered sum of each pattern applied to its source tensor.
    Deterministic summation order keeps every execution path bit-identical.
    """

    name: str
    taps: Tuple[Tuple[str, StencilPattern], ...]

    def __post_init__(self) -> None:
        require(isinstance(self.name, str) and self.name != "",
                "stage name must be a non-empty string")
        require(self.name != STATE,
                f"stage name {STATE!r} is reserved for the program state")
        object.__setattr__(self, "taps", _as_taps(self.taps))
        require(len(self.taps) > 0, f"stage {self.name!r} needs >= 1 tap")
        ndims = {pattern.ndim for _, pattern in self.taps}
        require(len(ndims) == 1,
                f"stage {self.name!r} mixes tap dimensionalities {ndims}")

    @classmethod
    def kernel(cls, name: str, pattern: StencilPattern,
               source: str = STATE) -> "ProgramStage":
        """The common single-kernel stage: ``name = pattern(source)``."""
        return cls(name=name, taps=((source, pattern),))

    @classmethod
    def combine(cls, name: str,
                *taps: Tuple[str, StencilPattern]) -> "ProgramStage":
        """A multi-tap stage: ``name = sum(pattern_i(source_i))``."""
        return cls(name=name, taps=tuple(taps))

    @property
    def sources(self) -> Tuple[str, ...]:
        return tuple(source for source, _ in self.taps)

    @property
    def radius(self) -> int:
        return max(pattern.radius for _, pattern in self.taps)

    @property
    def ndim(self) -> int:
        return self.taps[0][1].ndim

    @property
    def single_kernel(self) -> bool:
        return len(self.taps) == 1


@dataclass(frozen=True)
class StencilProgram:
    """An ordered DAG of named stages, one full pass per program step.

    ``stages`` may be declared in any order (forward references are legal);
    :attr:`execution_order` is the topological order with declaration-order
    tie-breaking, and construction validates the wiring:

    * stage names are unique and never ``"state"``;
    * every tap source is ``"state"`` or a declared stage name;
    * the dependency graph is acyclic;
    * every stage is reachable from the ``output`` stage (dead stages would
      silently burn compute, so they are errors);
    * all stages share one dimensionality.

    ``output`` names the stage whose tensor becomes the next step's state;
    it defaults to the last declared stage.
    """

    name: str
    stages: Tuple[ProgramStage, ...]
    output: str = ""

    def __post_init__(self) -> None:
        require(isinstance(self.name, str) and self.name != "",
                "program name must be a non-empty string")
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        require(len(stages) > 0, "a program needs at least one stage")
        for stage in stages:
            require(isinstance(stage, ProgramStage),
                    f"stages must be ProgramStage, "
                    f"got {type(stage).__name__}")
        names = [stage.name for stage in stages]
        require(len(set(names)) == len(names),
                f"duplicate stage names in program {self.name!r}: {names}")
        if self.output == "":
            object.__setattr__(self, "output", names[-1])
        require(self.output in names,
                f"output stage {self.output!r} is not a stage of program "
                f"{self.name!r} (stages: {names})")
        ndims = {stage.ndim for stage in stages}
        require(len(ndims) == 1,
                f"program {self.name!r} mixes stage dimensionalities {ndims}")
        by_name = {stage.name: stage for stage in stages}
        for stage in stages:
            for source in stage.sources:
                require(source == STATE or source in by_name,
                        f"stage {stage.name!r} reads {source!r}, which is "
                        f"neither {STATE!r} nor a stage of program "
                        f"{self.name!r}")
        self._validate_acyclic_and_live(by_name)

    def _validate_acyclic_and_live(
            self, by_name: Dict[str, ProgramStage]) -> None:
        # Kahn's algorithm with declaration-order tie-breaking; anything left
        # unordered sits on a cycle.
        order: List[ProgramStage] = []
        placed = {STATE}
        remaining = list(self.stages)
        while remaining:
            ready = [stage for stage in remaining
                     if all(src in placed for src in stage.sources)]
            if not ready:
                cycle = sorted(stage.name for stage in remaining)
                require(False,
                        f"program {self.name!r} has a dependency cycle "
                        f"among stages {cycle}")
            for stage in ready:
                order.append(stage)
                placed.add(stage.name)
            remaining = [s for s in remaining if s.name not in placed]
        object.__setattr__(self, "_execution_order", tuple(order))

        # liveness: walk tap edges backwards from the output stage
        live = set()
        frontier = [self.output]
        while frontier:
            name = frontier.pop()
            if name in live or name == STATE:
                continue
            live.add(name)
            frontier.extend(by_name[name].sources)
        dead = sorted(set(by_name) - live)
        require(not dead,
                f"stages {dead} of program {self.name!r} never feed the "
                f"output stage {self.output!r} — remove them or rewire")

    # -- views --------------------------------------------------------------

    @property
    def execution_order(self) -> Tuple[ProgramStage, ...]:
        """Stages in topological order (declaration order breaks ties)."""
        return self._execution_order  # type: ignore[attr-defined]

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self.execution_order)

    @property
    def ndim(self) -> int:
        return self.stages[0].ndim

    @property
    def radius(self) -> int:
        """The maximum stage radius (what one program step's halo must feed)."""
        return max(stage.radius for stage in self.stages)

    @cached_property
    def is_chain(self) -> bool:
        """True for a linear pipeline: every stage single-tap, stage ``i``
        reading stage ``i-1`` (the first reading ``"state"``), the output
        being the last stage.  Chains are what cross-stage fusion and the
        sharded round schedule apply to."""
        order = self.execution_order
        if self.output != order[-1].name:
            return False
        previous = STATE
        for stage in order:
            if not stage.single_kernel or stage.sources[0] != previous:
                return False
            previous = stage.name
        return True

    @property
    def uniform_radius(self) -> bool:
        return len({stage.radius for stage in self.stages}) == 1

    def stage(self, name: str) -> ProgramStage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        require(False, f"program {self.name!r} has no stage {name!r}")

    def describe(self) -> str:
        parts = []
        for stage in self.execution_order:
            taps = " + ".join(f"{pattern.name}({source})"
                              for source, pattern in stage.taps)
            parts.append(f"{stage.name} = {taps}")
        return f"{self.name}: " + "; ".join(parts) + f" -> {self.output}"

    def lint(self, *, grid_shape: Optional[Tuple[int, ...]] = None,
             boundary: str = "dirichlet", devices: int = 1,
             spec: Any = None) -> Any:
        """Static diagnostics for this program: fusion blockers and
        topology hygiene, reported as a
        :class:`~repro.lint.DiagnosticReport` without running anything.

        ``grid_shape``/``boundary``/``devices``/``spec`` feed the modelled
        cost of the halo exchanges a mixed-radius fusion break would force
        (SP102 details); without them the break is still reported, just
        unpriced.
        """
        from repro.lint.domain import lint_program

        return lint_program(self, grid_shape=grid_shape, boundary=boundary,
                            devices=devices, spec=spec)

    @classmethod
    def chain(cls, name: str,
              stages: Sequence[Union[ProgramStage,
                                     Tuple[str, StencilPattern]]],
              ) -> "StencilProgram":
        """Build a linear pipeline from ``(stage_name, pattern)`` pairs:
        each stage reads the previous one (the first reads ``"state"``)."""
        built: List[ProgramStage] = []
        previous = STATE
        for entry in stages:
            if isinstance(entry, ProgramStage):
                built.append(entry)
                previous = entry.name
                continue
            stage_name, pattern = entry
            built.append(ProgramStage.kernel(stage_name, pattern,
                                             source=previous))
            previous = stage_name
        return cls(name=name, stages=tuple(built))


def run_program_reference(program: StencilProgram, grid: Grid,
                          steps: int) -> np.ndarray:
    """Golden float64 reference for ``steps`` program steps.

    Implements the execution contract in the module docstring with the
    :func:`~repro.stencils.reference.apply_stencil_reference` oracle: per
    stage, each tap's input is copied, halo-filled at the tap radius and
    swept; tap results are summed in declaration order on the stage-radius
    interior; the stage tensor inherits its first tap's halo ring and is
    halo-filled at the stage radius.  The output stage's tensor becomes the
    next step's state.
    """
    require_positive_int(steps, "steps")
    require(grid.ndim == program.ndim,
            f"grid ndim {grid.ndim} does not match program ndim "
            f"{program.ndim}")
    boundary = grid.boundary
    shape = grid.shape
    state = np.array(grid.data, dtype=np.float64, copy=True)
    for _ in range(steps):
        tensors: Dict[str, np.ndarray] = {STATE: state}
        for stage in program.execution_order:
            stage_radius = stage.radius
            interior = tuple(slice(stage_radius, s - stage_radius)
                             for s in shape)
            acc = None
            for source, pattern in stage.taps:
                data = tensors[source].copy()
                if pattern.radius > 0:
                    apply_boundary(data, pattern.radius, boundary)
                valid = apply_stencil_reference(pattern, data)
                trim = stage_radius - pattern.radius
                if trim:
                    valid = valid[tuple(slice(trim, s - trim)
                                        for s in valid.shape)]
                acc = valid if acc is None else acc + valid
            out = tensors[stage.taps[0][0]].copy()
            out[interior] = acc
            if stage_radius > 0:
                apply_boundary(out, stage_radius, boundary)
            tensors[stage.name] = out
        state = tensors[program.output]
    return state
