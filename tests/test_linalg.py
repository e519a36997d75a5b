import random
from fractions import Fraction

import numpy as np
import pytest

from odeobs.linalg import SingularMatrixError, invert, rank

from conftest import mat_mul


class TestRank:
    def test_known_matrices(self):
        assert rank([[Fraction(1)]]) == 1
        assert rank([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]) == 0
        assert rank([[1, 2], [2, 4]]) == 1
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
        assert rank([]) == 0
        # fractions that only cancel exactly
        assert (
            rank(
                [
                    [Fraction(1, 3), Fraction(1, 6)],
                    [Fraction(2, 3), Fraction(1, 3)],
                ]
            )
            == 1
        )

    def test_against_numpy_on_random_integer_matrices(self):
        rng = random.Random(43)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            expected = int(np.linalg.matrix_rank(np.array(m, dtype=float)))
            assert rank(m) == expected

    def test_int_and_fraction_rows_agree_and_input_is_kept(self):
        rng = random.Random(45)
        for _ in range(100):
            ints = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(rng.randint(1, 4))]
            mixed = [
                [Fraction(x, 3) for x in row] if rng.random() < 0.5 else list(row)
                for row in ints
            ]
            copy = [list(row) for row in ints]
            assert rank(ints) == rank(mixed) == rank([[Fraction(x) for x in r] for r in ints])
            assert ints == copy

    def test_rank_deficient_products(self):
        rng = random.Random(47)
        for _ in range(50):
            n, r = 4, rng.randint(0, 3)
            a = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
            b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            product = mat_mul(a, b) if r else [[Fraction(0)] * n for _ in range(n)]
            assert rank(product) <= r


class TestSolveInvert:
    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError, match="singular at column 1"):
            invert([[1, 1], [1, 1]])

    def test_invert_round_trip(self):
        rng = random.Random(53)
        built = 0
        while built < 40:
            n = rng.randint(1, 4)
            a = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            if rank(a) < n:
                continue
            inv = invert(a)
            identity = mat_mul(a, inv)
            for i in range(n):
                for j in range(n):
                    assert identity[i][j] == (1 if i == j else 0)
            built += 1
