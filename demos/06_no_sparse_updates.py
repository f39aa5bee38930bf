# Why the sketch must rotate its rows.
#
# Every compression rewrites the buffer as scaled singular directions,
# which destroys row sparsity. Could a cleverer update keep the original
# (possibly sparse) rows, just deleting one and rescaling the rest? For
# the update to play the same role as a shrink step it needs two things
# at once: drop enough total mass per deletion (call the per-step demand
# c * ell when the step charge is normalized to 1), and never hurt any
# single direction by more than that unit charge.
#
# This script measures both requirements on the instance that pins them
# against each other: ell rows that each mix a private coordinate with one
# shared coordinate. Rescaling can only trade mass between the two
# requirements through the shared column, and an exact count of the
# feasible rescalings shows the trade only closes when c <= 2 / ell. A
# useful sketch needs c on the order of 1, so row-preserving updates are out
# and the rotation stays.

from fdsketch.counterexamples import (
    SparseFdInstance,
    orthogonal_residual_min,
    sparse_fd_check,
    sparse_feasibility_grid,
)

ell = 4
inst = SparseFdInstance(ell, ell + 1)
print("the hard instance (each row: shared first column + one private column):")
print(inst.matrix)

# What does deleting a row actually cost here? The smallest squared
# residual of the instance against itself minus one row:
val, idx = orthogonal_residual_min(inst.matrix, inst.weights)
print(f"\ncheapest row to delete: index {idx}, residual {val:.4f}"
      f" (= 1 + 1/{ell}: the shared column makes every deletion overpay)")

# Count every rescaling alpha in [-2, 2]^(ell-1) at step 0.01 that meets
# both requirements at once, for each ell up to 10. Both depend on alpha only
# through its sum, so the count is exact even over the 401^9 points at ell 10.
demands = ("2/ell", "2/ell+0.1", "1", "2")
print(f"\n{'ell':>4} {'grid points':>26}" + "".join(f" {d:>10}" for d in demands))
for rows in range(3, 11):
    cells = []
    for c in (2 / rows, 2 / rows + 0.1, 1.0, 2.0):
        scan = sparse_feasibility_grid(rows, c)
        cells.append("empty" if scan.empty else "feasible")
    print(f"{rows:>4} {scan.points_checked:>26}" + "".join(f" {v:>10}" for v in cells))

print(f"\nthe crossover sits exactly at c = 2/ell ({2 / ell} at ell = {ell})")

# At the boundary only rescalings whose reductions sum to zero work, and
# doing nothing at all is one of them:
rep = sparse_fd_check(inst, [0.0] * (ell - 1), c=2 / ell)
print(f"alpha = 0 at c = 2/ell: mass demand met {rep.p1_satisfied}, "
      f"direction safe {rep.p2_satisfied}")
