"""Seeds and mutation, symbolically and numerically.

A seed pairs an ordered cluster with a sign-skew-symmetric exchange
matrix. Mutating at vertex k replaces entry k by

    (product over row-k positives + product over row-k negatives) / entry k

and updates the matrix. Mutation is an involution: doing it twice at the
same vertex restores the seed. The symbolic engine tracks entries as
rational functions; the numeric engine evaluates directly in GF(p^r),
and its exchange step (numeric_mutate) reads row k alone, while
apply_sequence carries the matrix along. Both walk the same A_5 chain
here.
"""

from clustercrypt import (
    DynkinSpec,
    FieldParams,
    apply_sequence,
    apply_symbolic_sequence,
    dynkin_exchange_matrix,
    element_to_int,
    initial_symbolic_seed,
    rf_mutate,
)

spec = DynkinSpec("A", 5)
matrix = dynkin_exchange_matrix(spec)
print("A_5 quiver (default orientation: x0 -> x1 <- x2 -> x3 <- x4):")
print(matrix.to_dot())
print("\nexchange matrix:")
for row in matrix.rows:
    print("  ", row)

# symbolic walk: watch the changed entry after each mutation
BIG_PRIME = (1 << 61) - 1
seed = initial_symbolic_seed(matrix, BIG_PRIME)
print("\nmutation chain 1, 4, 0, 3, 1 (new entry after each step):")
s = seed
for k in (1, 4, 0, 3, 1):
    s = rf_mutate(s, k)
    print(f"  mu_{k}: entry {k} becomes {s.entries[k].render()}")

# the involution, symbolically
twice = rf_mutate(rf_mutate(seed, 1), 1)
print("\nmutate twice at vertex 1: entries restored:",
      all(a == b for a, b in zip(twice.entries, seed.entries)))

# the same chain over GF(2^5), starting from the alpha powers
gf32 = FieldParams(2, 5, (1, 0, 1, 0, 0, 1))
start = tuple(gf32.alpha_power(i) for i in range(5))
values, _ = apply_sequence(start, matrix, [1, 4, 0, 3, 1], gf32)
print("\nnumeric walk from (1, a, a^2, a^3, a^4):")
print("  final values:", [element_to_int(v, gf32) for v in values])

# cross-check: evaluating the symbolic entries at alpha powers agrees
symbolic = apply_symbolic_sequence(initial_symbolic_seed(matrix, 2), [1, 4, 0, 3, 1])
point = [gf32.alpha_power(i) for i in range(5)]
evaluated = [element_to_int(e.evaluate(point, gf32), gf32) for e in symbolic.entries]
print("  symbolic path:", evaluated)
print("  agreement:", evaluated == [element_to_int(v, gf32) for v in values])
