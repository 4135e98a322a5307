"""A fixed reference computation, timed to track the machine's speed.

    python3 perfbench/calibrate.py

Runs nested adaptive Simpson quadrature of a smooth exponential weight
(the same kind of Python work the idepca CLI does, without importing it)
and prints the integral.  The benchmark times this process, spawn to
exit, next to each operation and scales operation times by it.
"""

import math

TOL = 1e-10


def simpson(f, a, b, tol):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return _adapt(f, a, fa, 0.5 * (a + b), fm, b, fb,
                  (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol)


def _adapt(f, a, fa, m, fm, b, fb, whole, tol):
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_adapt(f, a, fa, lm, flm, m, fm, left, 0.5 * tol)
            + _adapt(f, m, fm, rm, frm, b, fb, right, 0.5 * tol))


def main():
    coeff = lambda t: -1.0 / (1.0 + t)
    total = 0.0
    for n in range(4):
        weight = lambda s: math.exp(simpson(coeff, s, n + 1.0, TOL / 10.0))
        total += simpson(weight, float(n), n + 1.0, TOL)
    print(repr(total))


if __name__ == "__main__":
    main()
