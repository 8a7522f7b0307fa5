"""One owner per computation, read from the source: only circle knows the
(lo, len) arc format that _tau_pairs maps, only potential knows the branch
constants of f_c, and only series sums over the digit sums, in its one
direct sum of sigma; |sigma_{q^n}| is otherwise the orbit product, f_c
on an array is potential_array alone, every row of beta and gamma
comes from exponent_table, and every root of the balance from
certify._root."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gelfond"


def _identifiers(path: Path) -> set[str]:
    """Every name a module binds, reads, imports or takes as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
            out.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


MODULES = {p.stem: _identifiers(p) for p in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("name, owner", [("_tau_pairs", "circle"),
                                         ("REMOVABLE_TOL", "potential"),
                                         ("ZERO_TOL", "potential"),
                                         ("_digit_sums", "series")])
def test_single_owner(name, owner):
    assert {m for m, names in MODULES.items() if name in names} == {owner}


def test_no_second_direct_sum():
    # the profile of sigma reads the orbit product, not a direct sum
    assert {m for m, names in MODULES.items()
            if "polynomial_profile" in names} == set()


def test_no_second_exponent_driver():
    # table2 and the beta curve both hand exponent_table their c values
    assert {m for m, names in MODULES.items()
            if names & {"beta_curve", "_exponent_rows"}} == set()


@pytest.mark.parametrize("name", ["_f_map", "_libm", "_log_amp"])
def test_no_second_array_potential(name):
    # the grids and the fit both read f_c through potential_array
    assert {m for m, names in MODULES.items() if name in names} == set()


def test_one_root_routine():
    # the search and the sign bisection it replays are both certify._root
    assert {m for m, names in MODULES.items()
            if names & {"_settled", "_sign_bracket"}} == set()
