"""Migration reference: the pre-session API, side by side with the session.

The four historical entry points still work — each one is a
deprecation-warning shim delegating to the default
:class:`repro.StencilSession`, so results are bit-identical — but new code
should use the session directly.  The mapping:

=====================================  =============================================
Legacy call                            Session equivalent
=====================================  =============================================
``compile_stencil(p, shape)`` +        ``session.solve(Problem(p, grid, n))``
``run_stencil(compiled, grid, n)``     (or ``session.run(compiled, grid, n)``
                                       for an existing plan)
``sparstencil_solve(p, grid, n)``      ``session.solve(Problem(p, grid, n),
                                       mode="single")``
``solve_many(requests)``               ``session.solve_batch(problems)``
``solve_sharded(p, grid, n,            ``session.solve(Problem(p, grid, n),
devices=4)``                           SolvePolicy(mode="sharded", devices=4))``
``StencilServer.submit(p, grid, n)``   ``server.submit_problem(Problem(p, grid,
(removed)                              n))`` or ``session.solve(...,
                                       mode="served")``
``SolveRequest(...)``                  ``Problem(...)``
=====================================  =============================================

Run with::

    python examples/legacy_api.py
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import (
    Problem,
    SolvePolicy,
    StencilPattern,
    StencilSession,
    compile_stencil,
    make_grid,
    run_stencil,
    solve_many,
    solve_sharded,
    sparstencil_solve,
)
from repro.service import SolveRequest


def main() -> None:
    heat = StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1],
                               name="heat-2d")
    grid = make_grid((128, 128), kind="gaussian")

    session = StencilSession(devices=2)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeprecationWarning)

        # --- run_stencil / sparstencil_solve ---------------------------- #
        compiled = compile_stencil(heat, grid.shape)   # not deprecated
        legacy_run = run_stencil(compiled, grid, 4)
        _, legacy_solve = sparstencil_solve(heat, grid, 4)
        modern = session.solve(Problem(heat, grid, 4), mode="single")
        assert np.array_equal(legacy_run.output, modern.output)
        assert np.array_equal(legacy_solve.output, modern.output)

        # --- solve_many ------------------------------------------------- #
        requests = [SolveRequest(heat, make_grid((64, 64), seed=i), 2,
                                 tag=f"r{i}") for i in range(3)]
        legacy_report = solve_many(requests)
        modern_report = session.solve_batch(
            [Problem(heat, make_grid((64, 64), seed=i), 2, tag=f"r{i}")
             for i in range(3)])
        for old, new in zip(legacy_report.items, modern_report.items):
            assert np.array_equal(old.result.output, new.result.output)

        # --- solve_sharded ---------------------------------------------- #
        big = make_grid((1024, 1024), seed=9)
        _, legacy_sharded = solve_sharded(heat, big, 2, devices=2)
        modern_sharded = session.solve(
            Problem(heat, big, 2), SolvePolicy(mode="sharded", devices=2))
        assert np.array_equal(legacy_sharded.output, modern_sharded.output)

    print("All legacy entry points matched the session bit-for-bit.")
    print(f"\n{len(caught)} DeprecationWarnings were emitted; each names its "
          f"replacement:")
    for message in sorted({str(w.message).split(";")[0] for w in caught}):
        print(f"  - {message}")

    session.close()


if __name__ == "__main__":
    main()
