import random
from fractions import Fraction
from pathlib import Path

import pytest

from odeobs.expr import (
    Const,
    Expr,
    Symbol,
    add,
    div,
    ln,
    mul,
    neg,
    pow_int,
    sym,
)
from odeobs.model import OdeSystem, load_model

MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture(scope="session")
def sir() -> OdeSystem:
    return load_model(MODELS / "sir.model")


@pytest.fixture(scope="session")
def mm() -> OdeSystem:
    return load_model(MODELS / "mm.model")


@pytest.fixture(scope="session")
def toy() -> OdeSystem:
    return load_model(MODELS / "toy.model")


@pytest.fixture(scope="session")
def lv() -> OdeSystem:
    return load_model(MODELS / "lv.model")


def model_path(name: str) -> Path:
    return MODELS / f"{name}.model"


def mat_mul(a, b):
    """Exact matrix product of two rational matrices given as row lists."""
    return [
        [sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
        for row in a
    ]


def poly_to_sympy(p):
    """The sympy polynomial of a ``Poly``, over sympy symbols of the same names."""
    import sympy

    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[sympy.Symbol(v.name) ** k for v, k in zip(p.vars, mono)])
            for mono, c in p.coeffs.items()
        ]
    )


# ---------------------------------------------------------------------------
# random expression generation for property tests

X = Symbol("x", "state")
Y = Symbol("y", "state")
Z = Symbol("z", "state")
A = Symbol("a", "parameter")
B = Symbol("b", "parameter")
GEN_SYMBOLS = (X, Y, Z, A, B)


def random_expr(
    rng: random.Random,
    depth: int = 3,
    symbols=GEN_SYMBOLS,
    allow_div: bool = True,
    allow_ln: bool = False,
) -> Expr:
    """Small random expression; division keeps simple denominators so poles
    stay easy to dodge when sampling evaluation points."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return Const(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return sym(rng.choice(symbols))
    choice = rng.random()
    if choice < 0.30:
        return add(
            *[random_expr(rng, depth - 1, symbols, allow_div, allow_ln) for _ in range(rng.randint(2, 3))]
        )
    if choice < 0.60:
        return mul(
            *[random_expr(rng, depth - 1, symbols, allow_div, allow_ln) for _ in range(rng.randint(2, 3))]
        )
    if choice < 0.72:
        return neg(random_expr(rng, depth - 1, symbols, allow_div, allow_ln))
    if choice < 0.84 and allow_div:
        den = add(sym(rng.choice(symbols)), Const(Fraction(rng.randint(1, 5))))
        return div(random_expr(rng, depth - 1, symbols, allow_div, allow_ln), den)
    if choice < 0.92:
        return pow_int(
            random_expr(rng, depth - 1, symbols, allow_div, allow_ln),
            rng.randint(2, 3),
        )
    if allow_ln:
        inner = add(pow_int(sym(rng.choice(symbols)), 2), Const(Fraction(1)))
        return ln(inner)
    return sym(rng.choice(symbols))


def random_point(rng: random.Random, symbols=GEN_SYMBOLS, bound: int = 50) -> dict:
    return {s: Fraction(rng.randint(-bound, bound), rng.randint(1, 5)) for s in symbols}
