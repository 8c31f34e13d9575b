"""A small success-probability grid: when is recovery possible?

Recovery needs the number of observations L to comfortably exceed the
N(K + M) degrees of freedom, and longer modulated inputs (larger Q) help.
This desk-sized grid sweeps the message/channel dimensions at three Q
values and prints the success counts (a trial succeeds when its relative
error is below 1e-2); the full-scale version is `moddemix phase
--paper-scale`.
"""

from moddemix import SolverConfig, SweepGrid, run_phase_transition

grid = SweepGrid(L=64, N=2, Q_values=(16, 32, 64), K_values=(2, 4, 6),
                 M_values=(2, 4, 6, 8), trials=5)
rows = run_phase_transition(grid, SolverConfig(max_iters=400), base_seed=0)
successes = {(r["Q"], r["K"], r["M"]): r["successes"] for r in rows}

for Q in grid.q_values():
    print(f"\nQ = {Q}  (successes out of {grid.trials}, rows K, columns M)")
    print("      " + "".join(f"M={m:<4d}" for m in grid.M_values))
    for K in grid.K_values:
        print(f"K={K:<3d}  " + "".join(f"{successes[Q, K, M]:<6d}" for M in grid.M_values))

qs = grid.q_values()
cells = [(K, M) for K in grid.K_values for M in grid.M_values]
failing = [sum(successes[Q, K, M] < grid.trials for K, M in cells) for Q in qs]
monotone = sum(all(successes[a, K, M] <= successes[b, K, M] for a, b in zip(qs, qs[1:]))
               for K, M in cells)
print("\nCells where some seed fails: "
      + ", ".join(f"{n} at Q={Q}" for Q, n in zip(qs, failing)) + ".")
print(f"In {monotone} of the {len(cells)} (K, M) cells the success count does not "
      f"decrease as Q grows from {qs[0]} to {qs[-1]}.")
