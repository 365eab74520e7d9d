"""The checks of exactlin, znord, klein, hall and series survive ``python -O``.

Each case patches the helper a check relies on so that the check must fail,
runs the call in a ``-O`` subprocess and expects the check's own error.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import grouporders

CODE = textwrap.dedent("""
    from fractions import Fraction
    from grouporders import exactlin, hall, klein, znord
    from grouporders.errors import CertificateError, DimensionMismatch
    from grouporders.series import magnus
    from grouporders.words import parse_word
    from grouporders.znord import FlagOrdering, IntegerAutomorphism

    if __debug__:
        raise SystemExit("not running under -O")

    def check(message, call, patches=(), exc=CertificateError):
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        try:
            call()
        except exc as raised:
            if message not in str(raised):
                raise SystemExit(f"expected {message!r}, got {raised!r}")
        else:
            raise SystemExit(f"the check {message!r} was dropped")
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    cone = [(1, 0), (0, 1)]
    check("does not vanish on",
          lambda: exactlin.classify_cone([(1, 0), (-1, 0)]),
          [(exactlin.ZeroCombo, "holds_for", lambda self, vs: False)])
    check("no zero combination and no strict functional",
          lambda: exactlin.classify_cone(cone),
          [(exactlin, "solve_inequalities", lambda constraints, n: None)])
    check("is not strictly positive on",
          lambda: exactlin.classify_cone(cone),
          [(exactlin.Halfspace, "strict_for", lambda self, vs: False)])
    check("does not strictly separate",
          lambda: exactlin.strict_separator([(1, 0)], [(0, 1)]),
          [(exactlin, "solve_inequalities",
            lambda constraints, n: (Fraction(0), Fraction(0)))])

    check("does not make every input positive",
          lambda: znord.realize_flag([(1, 0)]),
          [(znord, "flag_sign", lambda flag, v: -1)])
    check("does not separate",
          lambda: znord.gl_witness(IntegerAutomorphism(((1, 1), (0, 1)))),
          [(znord, "flag_sign", lambda flag, v: 1),
           (znord, "realize_flag", lambda vs: FlagOrdering.identity(2))])

    orderings = klein.k_enumerate_orderings()
    check("share an outer class", klein.k_out_table,
          [(klein, "is_inner", lambda phi: klein.KleinElement(0, 0))])
    check("lies in the outer classes []", klein.k_out_table,
          [(klein, "is_inner", lambda phi: None)])
    check("conjugation by y must be nontrivial and fix every cone", klein.k_out_table,
          [(klein, "k_pull", lambda phi, ordering: orderings[0])])

    check("is not word 0 plus later Lyndon words", lambda: hall.decompose_lie(2, 3, {}),
          [(hall, "_commutator", lambda p, q, p_shift, q_shift: {})])

    check("equal rank and cap",
          lambda: magnus(parse_word("x1", 2), 3) * magnus(parse_word("x2", 2), 4),
          exc=DimensionMismatch)
""")


def test_checks_survive_optimisation():
    path = [str(Path(grouporders.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    result = subprocess.run([sys.executable, "-O", "-c", CODE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr

