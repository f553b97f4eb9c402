"""Every model's shortcut reads against its full pass.

For each model the registry in conftest.py draws, ``extreme_indices()``,
``lrep`` and ``delta_n`` must be ``FoesModel``'s own full argmax and argmin
(``FoesModel._find_extremes``) and full one-flip scan
(``FoesModel._one_flip_max``, checked against brute force in
test_metrics.py) over the model's table, by index and bits, or raise the
same error. Each model
is read twice: fresh, its hooks before its table, and with its table built
first. A new shortcut adds a strategy to the registry, not a test here.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import foeslab.core
import foeslab.zoo
from foeslab import delta_n, lrep
from foeslab.core import FoesModel
from conftest import JOINT_EXAMPLES, MODEL_EXAMPLES, Case, kernel_calls, models


def test_hypothesis_profile_has_no_deadline_and_fixed_examples():
    assert (settings.default.deadline, settings.default.derandomize) == (None, True)


def _outcome(read):
    """read()'s value, or the type and message of the error it raised."""
    try:
        return read()
    except Exception as error:
        return type(error), str(error)


# the kernels whose calls show a model's route: the full one-flip scan, one
# digit's flip spreads, and a read of the joint envelope's pieces
ROUTE_KERNELS = ((foeslab.core, "_one_flip_range"), (foeslab.zoo, "_flip_spreads"),
                 (foeslab.zoo, "_read_flips"))
READS = (lambda model: model.extreme_indices(), lambda model: lrep(model).lrep.hex(),
         lambda model: delta_n(model).hex())


def _full_pass(model) -> list:
    """The READS of a plain ``FoesModel`` over ``model``'s table: its full
    argmax and argmin (``FoesModel._find_extremes``) and full one-flip scan
    (``FoesModel._one_flip_max``), with none of ``model``'s hooks, which
    ``model.scores()`` would run."""
    plain = FoesModel(model.space, model.score_fn, budget=model.budget)
    plain._score_table = model._score_table
    return [_outcome(lambda: read(plain)) for read in READS]


def _read(case: Case, table_first: bool) -> tuple:
    """(model, its READS, the calls they made) of a fresh model of ``case``."""
    model = case.model()
    with kernel_calls(*ROUTE_KERNELS, (type(model), "_score_table")) as calls:
        if table_first:
            _outcome(model.scores)
        got = [_outcome(lambda: read(model)) for read in READS]
    return model, got, calls


def _routes(calls: list, joint: bool, table_first: bool) -> set:
    """The routes ``calls`` show."""
    names = [name for name, _ in calls]
    kernels = [name for name in names if name != "_score_table"]
    pieces = [args for name, args in calls if name == "_read_flips"]
    routes = set()
    if "_one_flip_range" in kernels:
        routes.add("no envelope" if joint else "full scan")
    if kernels == ["_flip_spreads"]:
        routes.add("keyed one-digit read")
    if any(side[0] is None for side, *_ in pieces):
        routes.add("per-digit side")
    if pieces and "_score_table" not in names:
        routes.add("tableless joint")
    if table_first and any(table is not None for *_, table in pieces):
        routes.add("table-first joint")
    return routes


def check_against_full_pass(case: Case) -> set:
    """Assert that both reads of ``case`` are the full pass and the fresh
    one takes its kind's route; return the routes both took."""
    with case.patched(), np.errstate(all="ignore"):
        model, got, calls = _read(case, table_first=False)
        want = _full_pass(model)
        assert got == want, case
        joint = isinstance(model, foeslab.zoo._JointRbm)
        routes = _routes(calls, joint, table_first=False)
        kernels = [(name, args) for name, args in calls if name != "_score_table"]
        if case.kind == "graph":
            # one read of the top digit of the gathered table
            assert [(name, args[1]) for name, args in kernels] == [
                ("_flip_spreads", model.n_variables - 1)]
        elif case.kind == "joint-long":
            assert "tableless joint" in routes
        elif case.kind == "joint-overflow":
            # no envelope: the full scan, unless the table has no finite extremes
            assert model._envelope is None
            assert [name for name, _ in kernels] in ([], ["_one_flip_range"])
        elif not joint:
            assert [name for name, _ in kernels] == ["_one_flip_range"]
        _, got, calls = _read(case, table_first=True)
        assert got == want, case
        routes |= _routes(calls, joint, table_first=True)
    if all(isinstance(value, str) for value in want[1:]):
        spread, delta = float.fromhex(want[1]), float.fromhex(want[2])
        if math.isfinite(spread) and math.isfinite(delta):
            # any two outcomes are at most N flips apart; the spread rounds
            # up by at most u = 2^-53 relative and each flip's difference
            # down by at most u, and (1 + u) / (1 - u) < 1 + 4u
            slack = 1 + Fraction(4, 2**53)
            assert Fraction(spread) <= model.n_variables * Fraction(delta) * slack
    return routes


@settings(max_examples=300)
@given(case=models())
def test_shortcuts_read_the_full_pass(case):
    check_against_full_pass(case)


EXPLICIT = MODEL_EXAMPLES + JOINT_EXAMPLES
# each explicit draw is checked once; the route test reuses the routes
explicit_routes = functools.cache(check_against_full_pass)


@pytest.mark.parametrize("case", EXPLICIT, ids=lambda case: case.kind)
def test_explicit_draw_reads_the_full_pass(case):
    explicit_routes(case)


def test_the_explicit_draws_reach_every_route():
    routes = set().union(*map(explicit_routes, EXPLICIT))
    assert routes == {"full scan", "keyed one-digit read", "tableless joint",
                      "table-first joint", "per-digit side", "no envelope"}
