import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from carefulsynth import ltl
from carefulsynth.errors import BudgetExceededError, LtlSyntaxError, UnknownAtomError
from carefulsynth.ltl import (
    Atom,
    Eventually,
    FragmentClass,
    Lit,
    Next,
    Not,
    Or,
    Until,
    classify_fragment,
    eval_on_lasso,
    formula_to_str,
    nnf,
    parse_ltl,
    to_nba,
)

from genutils import naive_eval, nba_accepts_lasso, random_formula, random_word


# ---------------------------------------------------------------------------
# Syntax-tree nodes


P, Q = Atom("p"), Atom("q")
UNARY = (ltl.Not, ltl.Next, ltl.Eventually, ltl.Always)
BINARY = (ltl.And, ltl.Or, ltl.Until, ltl.Release)


@pytest.mark.parametrize("classes, fields", [(UNARY, (P,)), (BINARY, (P, Q))])
def test_nodes_of_different_classes_with_equal_fields_differ(classes, fields):
    nodes = [cls(*fields) for cls in classes]
    for a in nodes:
        for b in nodes:
            assert (a == b) == (a is b) and (a != b) == (a is not b)
    assert len(dict.fromkeys(nodes)) == len(set(nodes)) == len(classes)


def test_equal_nodes_have_equal_hashes():
    for text in ["F p", "G p", "p U (q & X !p)", "G F (p | q)", "!X false"]:
        a, b = parse_ltl(text), parse_ltl(text)
        assert a is not b and a == b and hash(a) == hash(b)
        assert nnf(a) == nnf(b) and hash(nnf(a)) == hash(nnf(b))
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    assert Lit(True) is not Lit(True) and hash(Lit(True)) == hash(Lit(True))
    assert ltl.Release(P, Q) == ltl.Release(Atom("p"), Atom("q"))
    assert hash(ltl.Release(P, Q)) == hash(ltl.Release(Atom("p"), Atom("q")))


@pytest.mark.parametrize("cls, fields", [
    (Lit, (True,)), (Atom, ("p",)),
    *[(cls, (P,)) for cls in UNARY], *[(cls, (P, Q)) for cls in BINARY],
])
def test_a_node_never_equals_the_tuple_of_its_fields(cls, fields):
    node = cls(*fields)
    assert node != fields and fields != node
    assert not node == fields and not fields == node
    assert fields not in {node: None} and node not in {fields: None}


def test_setting_a_field_raises():
    node = Until(P, Q)
    with pytest.raises(AttributeError):
        node.left = Q
    with pytest.raises(AttributeError):
        P.name = "q"
    with pytest.raises(AttributeError):
        node.extra = P
    assert node == Until(P, Q) and node.left == P and node.right == Q


# ---------------------------------------------------------------------------
# Parsing


def test_parse_eventually_atom():
    assert parse_ltl("F circ") == Eventually(Atom("circ"))


def test_parse_true_constant():
    assert parse_ltl("true") == Lit(True)


def test_parse_until_with_or_and_next():
    # right operand is the whole parenthesized disjunction
    assert parse_ltl("a U (b | X c)") == Until(Atom("a"), Or(Atom("b"), Next(Atom("c"))))


def test_parse_precedence_until_binds_tighter_than_and():
    assert parse_ltl("a U b & c") == ltl.And(Until(Atom("a"), Atom("b")), Atom("c"))


def test_parse_until_right_associative():
    assert parse_ltl("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))


def test_parse_error_reports_position():
    with pytest.raises(LtlSyntaxError) as e:
        parse_ltl("F (a &")
    assert e.value.position is not None


def test_parse_rejects_garbage_character():
    with pytest.raises(LtlSyntaxError):
        parse_ltl("a + b")


@pytest.mark.parametrize("text, message", [
    ("a b", "at position 2: trailing input 'b'"),
    ("(a", "at position 2: expected ')'"),
    ("&a", "at position 0: unexpected token '&'"),
    ("a U", "at position 3: unexpected end of input"),
    ("U", "at position 0: unexpected token 'U'"),
])
def test_parse_errors_name_the_token_and_its_position(text, message):
    with pytest.raises(LtlSyntaxError) as e:
        parse_ltl(text)
    assert str(e.value) == message
    assert e.value.position == int(message.split()[2].rstrip(":"))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pretty_print_round_trip(seed):
    rng = random.Random(seed)
    phi = random_formula(rng, rng.randrange(0, 4))
    assert parse_ltl(formula_to_str(phi)) == phi


class _Weak(ltl.Formula, fields="left right"):
    """A binary node that no function of the package knows."""

    __slots__ = ()


def test_formula_to_str_rejects_an_unknown_node():
    with pytest.raises(TypeError, match="unknown node _Weak"):
        formula_to_str(Eventually(_Weak(Atom("p"), Atom("q"))))


# ---------------------------------------------------------------------------
# Evaluation on lassos


def test_eventually_on_reaching_loop():
    stem = [frozenset(), frozenset()]
    loop = [frozenset({"circ", "box"})]
    assert eval_on_lasso(Eventually(Atom("circ")), stem, loop)


def test_buchi_semantics_of_always_eventually():
    gf = ltl.Always(Eventually(Atom("p")))
    assert eval_on_lasso(gf, [], [frozenset({"p"})])
    assert not eval_on_lasso(gf, [frozenset({"p"})], [frozenset()])


def test_next_looks_one_step_ahead():
    assert eval_on_lasso(Next(Atom("p")), [frozenset(), frozenset({"p"})], [frozenset()])


def test_stem_given_as_an_iterator_is_read_once():
    # the stem's length must come from the same pass that builds the word
    phi = parse_ltl("F G p")
    assert eval_on_lasso(phi, iter([frozenset()]), [frozenset({"p"})])
    assert eval_on_lasso(phi, [frozenset()], [frozenset({"p"})])


def test_unknown_atom_is_an_error():
    with pytest.raises(UnknownAtomError):
        eval_on_lasso(Atom("zz"), [], [frozenset({"p"})], atoms={"p"})


def test_an_empty_loop_is_an_error():
    with pytest.raises(ValueError, match="loop must be nonempty"):
        eval_on_lasso(Atom("p"), [frozenset({"p"})], [])


def test_eval_rejects_an_unknown_node():
    with pytest.raises(TypeError, match="unknown node _Weak"):
        eval_on_lasso(Next(_Weak(Atom("p"), Atom("q"))), [], [frozenset({"p"})])


def test_eval_bool_rejects_a_temporal_formula():
    assert ltl.eval_bool(parse_ltl("p & !q"), frozenset({"p"}))
    with pytest.raises(ValueError, match=r"not a boolean formula: \(X p\)"):
        ltl.eval_bool(parse_ltl("p & X p"), frozenset({"p"}))


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_eval_agrees_with_unrolling_reference(seed):
    rng = random.Random(seed)
    phi = random_formula(rng, rng.randrange(0, 4))
    stem, loop = random_word(rng)
    assert eval_on_lasso(phi, stem, loop) == naive_eval(phi, stem, loop)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_eval_invariant_under_nnf(seed):
    rng = random.Random(seed)
    phi = random_formula(rng, rng.randrange(0, 4))
    stem, loop = random_word(rng)
    assert eval_on_lasso(phi, stem, loop) == eval_on_lasso(nnf(phi), stem, loop)


def _nodes(phi):
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(g for g in f[1:] if isinstance(g, ltl.Formula))


def _negated(f):
    """A formula in negation normal form with every operator swapped for its
    dual, literals flipped and atoms negated."""
    if isinstance(f, Lit):
        return Lit(not f.value)
    if isinstance(f, Atom):
        return Not(f)
    if isinstance(f, Not):
        return f.sub
    dual = {ltl.And: Or, Or: ltl.And, Next: Next, Until: ltl.Release, ltl.Release: Until}
    return dual[type(f)](*map(_negated, f[1:]))


def test_nnf_shape_on_random_formulas():
    # classify_fragment and to_nba read the tree's shape, not only its meaning
    seen = {"negated atom": 0, "release": 0, "eventually": 0, "always": 0}
    for seed in range(600):
        rng = random.Random(seed)
        phi = random_formula(rng, rng.randrange(0, 6))
        psi = nnf(phi)
        for f in _nodes(psi):
            assert not isinstance(f, (Eventually, ltl.Always)), (phi, psi)
            assert not isinstance(f, Not) or isinstance(f.sub, Atom), (phi, psi)
            seen["negated atom"] += isinstance(f, Not)
            seen["release"] += isinstance(f, ltl.Release)
        for f in _nodes(phi):
            seen["eventually"] += isinstance(f, Eventually)
            seen["always"] += isinstance(f, ltl.Always)
        assert nnf(psi) == psi
        assert nnf(Not(phi)) == _negated(psi)
    assert min(seen.values()) > 100, seen


def test_nnf_rejects_an_unknown_node():
    with pytest.raises(TypeError, match="unknown node"):
        nnf(Not(_Weak(Atom("p"), Atom("q"))))


def _long_word(rng, longest=40):
    """A stem of 0 to `longest` positions and a loop of 1 to `longest`,
    each atom holding at a density drawn per word, so that some events are
    many positions apart and some fixpoints take many rounds."""
    density = {a: rng.choice((0.02, 0.1, 0.5, 0.9, 0.98)) for a in ("p", "q")}

    def letters(k):
        return [frozenset(a for a in density if rng.random() < density[a]) for _ in range(k)]

    return letters(rng.randrange(0, longest + 1)), letters(rng.randrange(1, longest + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_eval_on_long_words_agrees_with_unrolling_reference(seed):
    # words of up to 80 positions span several digits of a Python int;
    # nnf turns `G` and a negated `U` into `R`, so every operator is read
    rng = random.Random(seed)
    phi = random_formula(rng, rng.randrange(1, 4))
    stem, loop = _long_word(rng)
    expected = naive_eval(phi, stem, loop)
    assert eval_on_lasso(phi, stem, loop) == expected
    assert eval_on_lasso(nnf(phi), stem, loop) == expected


@pytest.mark.parametrize("text", ["p", "!q", "p U q", "F p", "G p", "G F p", "F G q", "!(p U !q)"])
def test_successor_of_the_last_position_is_the_loop_head(text):
    # X^k psi at position 0 is psi at position k, which for k past the
    # last position lies in the loop again
    rng = random.Random(text)
    psi = parse_ltl(text)
    for _ in range(5):
        stem, loop = _long_word(rng)
        n = len(stem) + len(loop)
        for k in (n - 1, n, n + 1, n + len(loop) - 1):
            phi = psi
            for _ in range(k):
                phi = Next(phi)
            assert eval_on_lasso(phi, stem, loop) == naive_eval(psi, stem, loop, pos=k), k
            assert eval_on_lasso(nnf(phi), stem, loop) == naive_eval(psi, stem, loop, pos=k), k


# ---------------------------------------------------------------------------
# Büchi translation


def test_nba_of_true_accepts_everything():
    nba = to_nba(Lit(True))
    assert len(nba.accepting) >= 1
    assert nba_accepts_lasso(nba, [], [frozenset()])
    assert nba_accepts_lasso(nba, [frozenset({"p"})], [frozenset({"q"})])


def test_nba_of_false_accepts_nothing():
    nba = to_nba(Lit(False))
    assert not nba_accepts_lasso(nba, [], [frozenset()])


def test_nba_of_eventually_language():
    nba = to_nba(Eventually(Atom("p")))
    assert nba_accepts_lasso(nba, [frozenset()], [frozenset({"p"})])
    assert nba_accepts_lasso(nba, [frozenset({"p"})], [frozenset()])
    assert not nba_accepts_lasso(nba, [frozenset()], [frozenset()])


def test_nba_membership_equals_direct_evaluation():
    # acceptance criterion 5 at unit scale; the full 200-pair run lives in
    # the acceptance suite
    rng = random.Random(99)
    translated = 0
    for _ in range(210):
        phi = random_formula(rng, rng.randrange(0, 6))
        try:
            nba = to_nba(phi)
        except BudgetExceededError:  # closure over the cap
            continue
        translated += 1
        for _ in range(5):
            stem, loop = random_word(rng)
            assert nba_accepts_lasso(nba, stem, loop) == eval_on_lasso(phi, stem, loop)
    assert translated >= 200


def test_tableau_cap_is_on_the_closure_size():
    # one more X in the last conjunct makes 21 members
    at_cap = parse_ltl("G F p & F G !q & (p U (q & X !p)) & G (p | X X q)")
    assert len(ltl._closure(nnf(at_cap))) == ltl._CLOSURE_CAP == 20
    nba = to_nba(at_cap)
    rng = random.Random(20)
    for _ in range(50):
        stem, loop = random_word(rng)
        assert nba_accepts_lasso(nba, stem, loop) == eval_on_lasso(at_cap, stem, loop)
    with pytest.raises(BudgetExceededError):
        to_nba(parse_ltl("G F p & F G !q & (p U (q & X !p)) & G (p | X X X q)"))


# ---------------------------------------------------------------------------
# Fragment classification


def test_classify_reach():
    frag = classify_fragment(parse_ltl("F box"))
    assert frag.kind == FragmentClass.REACH
    assert frag.beta == Atom("box")


def test_classify_safe_negated_atom():
    frag = classify_fragment(parse_ltl("G ! bot"))
    assert frag.kind == FragmentClass.SAFE
    assert frag.beta == Not(Atom("bot"))


def test_classify_buchi_and_cobuchi():
    assert classify_fragment(parse_ltl("G F p")).kind == FragmentClass.BUCHI
    assert classify_fragment(parse_ltl("F G p")).kind == FragmentClass.COBUCHI


def test_classify_nested_temporal_is_general():
    assert classify_fragment(parse_ltl("F (a & X b)")).kind == FragmentClass.GENERAL


def test_classify_constants():
    assert classify_fragment(Lit(True)).kind == FragmentClass.SAFE
    assert classify_fragment(Lit(False)).kind == FragmentClass.SAFE


def test_classify_negation_normalizes():
    # !F!p == G p
    assert classify_fragment(parse_ltl("! F ! p")).kind == FragmentClass.SAFE


@pytest.mark.parametrize(
    "text, kind, beta",
    [
        ("F p", FragmentClass.REACH, "p"),
        ("G p", FragmentClass.SAFE, "p"),
        ("G F p", FragmentClass.BUCHI, "p"),
        ("F G p", FragmentClass.COBUCHI, "p"),
        ("! F ! p", FragmentClass.SAFE, "p"),
        ("! G F ! p", FragmentClass.COBUCHI, "p"),
        ("true U p", FragmentClass.REACH, "p"),
        ("!(true U !p)", FragmentClass.SAFE, "p"),
        ("!!F p", FragmentClass.REACH, "p"),
        ("(!false) U p", FragmentClass.REACH, "p"),
        ("G !(p & q)", FragmentClass.SAFE, "!(p & q)"),
        ("F F p", FragmentClass.GENERAL, None),
        ("G (p | F q)", FragmentClass.GENERAL, None),
        ("p", FragmentClass.GENERAL, None),
        ("true", FragmentClass.SAFE, "true"),
        ("false", FragmentClass.SAFE, "false"),
    ],
)
def test_classify_shape_table(text, kind, beta):
    frag = classify_fragment(parse_ltl(text))
    assert frag.kind == kind
    if beta is None:
        assert frag.beta is None
    else:
        # beta is compared as a function of the letter, not as a tree
        expected = parse_ltl(beta)
        for letter in [frozenset(), {"p"}, {"q"}, {"p", "q"}]:
            assert ltl.eval_bool(frag.beta, letter) == ltl.eval_bool(expected, letter)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_classification_is_semantically_sound(seed):
    rng = random.Random(seed)
    phi = random_formula(rng, rng.randrange(0, 4))
    frag = classify_fragment(phi)
    if frag.kind == FragmentClass.GENERAL:
        return
    stem, loop = random_word(rng)
    expected = eval_on_lasso(phi, stem, loop)
    word = stem + loop
    sat = [ltl.eval_bool(frag.beta, letter) for letter in word]
    loop_sat = sat[len(stem):]
    if frag.kind == FragmentClass.REACH:
        direct = any(sat)
    elif frag.kind == FragmentClass.SAFE:
        direct = all(sat)
    elif frag.kind == FragmentClass.BUCHI:
        direct = any(loop_sat)
    else:  # CoBuchi
        direct = all(loop_sat)
    assert direct == expected
