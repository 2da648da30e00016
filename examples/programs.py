"""Multi-stage stencil programs: an RK2 advection-diffusion DAG.

A :class:`repro.StencilProgram` is an ordered DAG of named stencil stages
executed once per program step.  This example builds a midpoint (RK2) time
integrator for the 2-D advection-diffusion equation

    du/dt = -c . grad(u) + nu * laplacian(u)

as a genuine DAG — the ``update`` stage reads *both* the original state and
the ``half`` midpoint stage::

    half   = (I + dt/2 * L)(state)          # midpoint estimate
    update = I(state) + dt * L(half)        # full step from the midpoint

and solves it through the session front door, checking the fp16 Tensor-Core
execution against the float64 golden reference and showing what the modelled
cross-stage fusion would save on a sharded run.

Run with::

    python examples/programs.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    STATE,
    Problem,
    ProgramStage,
    StencilPattern,
    StencilProgram,
    StencilSession,
    make_grid,
    program_fusion_summary,
    run_program_reference,
)

GRID_SIZE = 128
STEPS = 8

# physics: diffusivity, advection velocity (upwind-discretised), time step
NU = 0.05
CX, CY = 0.5, 0.25
DT = 0.4


def operator_kernel() -> np.ndarray:
    """Dense 3x3 kernel of L = -c.grad + nu*laplacian (first-order upwind
    advection for positive c, second-order central diffusion)."""
    kernel = np.zeros((3, 3))
    kernel[1, 1] = -4.0 * NU - CX - CY
    kernel[0, 1] = NU + CX    # x-1: diffusion + upwind inflow
    kernel[2, 1] = NU         # x+1
    kernel[1, 0] = NU + CY    # y-1: diffusion + upwind inflow
    kernel[1, 2] = NU         # y+1
    return kernel


def rk2_program() -> StencilProgram:
    operator = operator_kernel()
    half = np.zeros((3, 3))
    half[1, 1] = 1.0
    half += 0.5 * DT * operator
    identity = np.zeros((3, 3))
    identity[1, 1] = 1.0
    return StencilProgram(
        name="rk2-advection-diffusion",
        stages=(
            ProgramStage("half", taps=(
                (STATE, StencilPattern.from_dense(half, name="rk2-half")),
            )),
            # a two-tap stage: u_next = u + dt * L(u_half) reads both the
            # step's input state and the midpoint stage — a true DAG node
            ProgramStage("update", taps=(
                (STATE, StencilPattern.from_dense(identity,
                                                  name="identity")),
                ("half", StencilPattern.from_dense(DT * operator,
                                                   name="rk2-slope")),
            )),
        ),
        output="update",
    )


def main() -> None:
    program = rk2_program()
    print("Program:", program.describe())
    print("Chain?", program.is_chain,
          "(multi-tap stages make this a general DAG)")

    grid = make_grid((GRID_SIZE, GRID_SIZE), kind="gaussian",
                     boundary="periodic")
    session = StencilSession()
    solution = session.solve(Problem(program=program, grid=grid,
                                     iterations=STEPS))
    print("Routed to:", solution.provenance.executor,
          "|", solution.provenance.reason)

    reference = run_program_reference(program, grid, STEPS)
    error = float(np.max(np.abs(solution.output.astype(np.float64)
                                - reference)))
    print(f"Max |error| vs float64 reference after {STEPS} steps: "
          f"{error:.2e}")
    assert error < 5e-3  # fp16 Tensor-Core tolerance

    # General DAGs run single-device (only single-tap chains shard); a
    # chain variant of the same physics shows what fusion buys when sharded.
    euler = np.zeros((3, 3))
    euler[1, 1] = 1.0
    euler += DT * operator_kernel()
    chain = StencilProgram.chain("rk2-chain", [
        ("step", StencilPattern.from_dense(euler, name="euler-step")),
        ("smooth", StencilPattern.box(2, 1, weights=[1.0 / 9.0] * 9)),
    ])
    plan = session.compile(Problem(program=chain, grid=grid,
                                   iterations=STEPS))
    summary = program_fusion_summary(plan, devices=4, steps=STEPS)
    print(f"\nFusion (modelled, {summary.devices} devices, "
          f"{summary.steps} steps):")
    print(f"  unfused halo exchanges: {summary.unfused.exchange_count}")
    print(f"  fused halo exchanges:   {summary.fused.exchange_count} "
          f"(groups: {[list(g) for g in summary.fused.groups]})")
    print(f"  exchanges removed:      {summary.exchanges_removed} "
          f"({summary.exchange_reduction:.0%})")
    session.close()


if __name__ == "__main__":
    main()
