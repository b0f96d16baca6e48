import numpy as np
import pytest

from dynabs import Box, TransitionSystem, WorkingZone, check, format_ctl, parse_ctl, sat_set
from dynabs.ctl import MAX_NESTING, CtlSyntaxError

from oracles import oracle_sat
from synthdata import ctl_subformulas
from synthdata import random_ctl_formula as random_formula
from synthdata import random_transition_system as random_ts
from synthdata import tiny_transition_system as tiny_ts


def chain_1_2():
    # Q1 -> Q2, Q2 -> Q2, sink self-loop
    return tiny_ts([[0, 1, 0], [0, 1, 0], [0, 0, 1]], 2)


def test_parse_simple_atoms():
    assert parse_ctl("EF Q2") == ("EF", ("cell", 2))
    assert parse_ctl("AX Q4") == ("AX", ("cell", 4))
    assert parse_ctl("EXIT") == ("exit",)
    assert parse_ctl("true") == ("true",)
    assert parse_ctl("Q17") == ("cell", 17)


def test_parse_nested_example():
    assert parse_ctl("EF (Q6 & EX Q7)") == ("EF", ("and", ("cell", 6), ("EX", ("cell", 7))))


def test_parse_precedence_and_binds_tighter_than_or():
    assert parse_ctl("Q1 | Q2 & Q3") == ("or", ("cell", 1), ("and", ("cell", 2), ("cell", 3)))
    assert parse_ctl("!Q1 & Q2") == ("and", ("not", ("cell", 1)), ("cell", 2))


def test_parse_until_forms():
    assert parse_ctl("E[Q1 U Q2]") == ("EU", ("cell", 1), ("cell", 2))
    assert parse_ctl("A [ true U EXIT ]") == ("AU", ("true",), ("exit",))


def test_parse_unary_chains():
    assert parse_ctl("EX EX Q1") == ("EX", ("EX", ("cell", 1)))
    assert parse_ctl("AG ! Q2") == ("AG", ("not", ("cell", 2)))


def test_parse_whitespace_insensitive():
    assert parse_ctl("EF(Q6&EX Q7)") == parse_ctl("  EF ( Q6 & EX   Q7 ) ")


def test_parse_errors_carry_position():
    with pytest.raises(CtlSyntaxError, match="position"):
        parse_ctl("EF (Q2")
    with pytest.raises(CtlSyntaxError, match="position"):
        parse_ctl("Q2 Q3")
    with pytest.raises(CtlSyntaxError, match="position"):
        parse_ctl("EF @2")
    with pytest.raises(CtlSyntaxError):
        parse_ctl("E[Q1 Q2]")
    with pytest.raises(CtlSyntaxError, match="FOO"):
        parse_ctl("FOO Q1")
    with pytest.raises(CtlSyntaxError):
        parse_ctl("")


@pytest.mark.parametrize("text, message", [
    ("EF (Q2", "unexpected end of formula at position 6"),
    ("Q2 Q3", "trailing input 'Q3' at position 3"),
    ("E[Q1 Q2]", "expected 'U' in until at position 5"),
    ("E Q1", "expected '[' but found 'Q1' at position 2"),
    ("(Q1 ]", "expected ')' but found ']' at position 4"),
    ("FOO Q1", "unknown name 'FOO' at position 0"),
    (")", "unexpected token ')' at position 0"),
    ("", "unexpected end of formula at position 0"),
])
def test_parse_error_texts_are_pinned(text, message):
    with pytest.raises(CtlSyntaxError) as err:
        parse_ctl(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("EF @2", "unexpected character '@' at position 3"),  # not the space before it
    ("EF Q" + "1" * 5000, "atom Q1111111... of 5000 digits at position 3 is too long"),
], ids=["bad character after a space", "atom past the int digit limit"])
def test_bad_character_or_atom_is_named_at_its_position(text, message):
    with pytest.raises(CtlSyntaxError) as err:
        parse_ctl(text)
    assert str(err.value) == message


def test_atom_out_of_range_reported():
    ts = chain_1_2()
    with pytest.raises(ValueError, match="Q9"):
        sat_set(ts, parse_ctl("EF Q9"))


def test_chain_examples():
    ts = chain_1_2()
    assert sat_set(ts, parse_ctl("EF Q2")) == {1, 2}
    assert sat_set(ts, parse_ctl("AX Q2")) == {1, 2}


def test_self_loop_ag():
    ts = tiny_ts([[1, 0], [0, 1]], 1)
    assert check(ts, parse_ctl("AG Q1"), 1)
    assert check(ts, parse_ctl("EG Q1"), 1)
    assert not check(ts, parse_ctl("EF EXIT"), 1)


def test_check_validates_initial():
    ts = chain_1_2()
    with pytest.raises(ValueError):
        check(ts, parse_ctl("EF Q1"), 0)
    with pytest.raises(ValueError):
        check(ts, parse_ctl("EF Q1"), 3)  # sink is not a valid initial cell


def test_exit_atom_semantics():
    zone = unit = WorkingZone(Box([0.0], [1.0]))
    ts = TransitionSystem(unit, (unit.omega,), np.array([[0, 1], [0, 1]], dtype=bool))
    assert check(ts, parse_ctl("AX EXIT"), 1)
    assert sat_set(ts, parse_ctl("EXIT")) == {2}


def test_duality_on_random_systems():
    rng = np.random.default_rng(0)
    for _ in range(40):
        ts = random_ts(rng)
        phi = random_formula(rng, ts.n_cells, 2)
        assert sat_set(ts, ("AX", phi)) == sat_set(ts, ("not", ("EX", ("not", phi))))
        assert sat_set(ts, ("AG", phi)) == sat_set(ts, ("not", ("EF", ("not", phi))))
        assert sat_set(ts, ("AF", phi)) == sat_set(ts, ("not", ("EG", ("not", phi))))


def test_ef_monotone_in_argument():
    rng = np.random.default_rng(1)
    for _ in range(40):
        ts = random_ts(rng)
        phi = ("cell", 1)
        psi = ("or", ("cell", 1), ("exit",))
        assert sat_set(ts, ("EF", phi)) <= sat_set(ts, ("EF", psi))


def test_fixpoint_agrees_with_path_oracle():
    rng = np.random.default_rng(7)
    seen_ops = set()
    for _ in range(150):
        ts = random_ts(rng)
        f = random_formula(rng, ts.n_cells, 3)
        seen_ops.update(node[0] for node in ctl_subformulas(f))
        assert sat_set(ts, f) == oracle_sat(ts, f), f"disagreement on {format_ctl(f)}"
    assert {"EX", "AX", "EF", "AF", "EG", "AG", "EU", "AU", "not", "and", "or"} <= seen_ops


def test_formula_str_round_trips():
    rng = np.random.default_rng(3)
    for _ in range(60):
        f = random_formula(rng, 5, 3)
        assert parse_ctl(format_ctl(f)) == f


@pytest.mark.parametrize("text, formatted", [
    ("EF (Q6 & EX Q7)", "EF (Q6 & EX Q7)"),
    ("A [ true U EXIT ] | !E[Q1 U AX Q2]", "(A[true U EXIT] | !E[Q1 U AX Q2])"),
    ("AF AG !Q3 & EG (Q1 | Q2 | Q4)", "(AF AG !Q3 & EG ((Q1 | Q2) | Q4))"),
    ("Q1 | Q2 & !(Q3 | EXIT)", "(Q1 | (Q2 & !(Q3 | EXIT)))"),
    ("EX !!Q007", "EX !!Q7"),
    ("AX (true & A[EF Q1 U E[Q2 U Q3]])", "AX (true & A[EF Q1 U E[Q2 U Q3]])"),
])
def test_format_ctl_text_is_pinned(text, formatted):
    # `verify` prints this text as "formula", so verdict files stay comparable
    assert format_ctl(parse_ctl(text)) == formatted


@pytest.mark.parametrize("make, position", [
    (lambda n: "!" * n + "Q1", 100),
    (lambda n: "(" * n + "Q1" + ")" * n, 100),
    (lambda n: "EX " * n + "Q1", 300),
    (lambda n: "E[" * n + "Q1" + " U Q2]" * n, 200),
    (lambda n: " & ".join(["Q1"] * (n + 1)), 503),
    (lambda n: "(" * (n - 1) + "Q1" + " | Q1)" * (n - 1) + " | Q1", 703),
    (lambda n: "E[(Q1) U " * (n - 1) + "(Q2)" + "]" * (n - 1), 893),
], ids=["negations", "parentheses", "EX chain", "nested until", "and chain", "bracketed or chains",
        "until with bracketed operands"])
def test_nesting_bound(make, position):
    ts = chain_1_2()
    at_bound = parse_ctl(make(MAX_NESTING))
    assert parse_ctl(format_ctl(at_bound)) == at_bound
    sat_set(ts, at_bound)
    check(ts, at_bound, 1)
    with pytest.raises(CtlSyntaxError) as err:
        parse_ctl(make(MAX_NESTING + 1))
    assert str(err.value) == f"formula nests deeper than {MAX_NESTING} levels at position {position}"
