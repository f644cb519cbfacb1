"""Exact-set algebra: normal form, boolean algebra, text syntax."""

import copy
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qtlab import intervals
from qtlab.intervals import (
    Interval,
    IntervalError,
    IntervalSet,
    TextFormatError,
    format_interval_list,
    format_rational,
    parse_interval,
    parse_interval_list,
    parse_rational,
)
from qtlab.intervals import _RATIONAL_RE


def iset(*ivs):
    return IntervalSet(ivs)


# ---------------------------------------------------------------- construction

def test_point_requires_closed_flags():
    with pytest.raises(IntervalError):
        Interval(F(1), F(1), True, False)
    with pytest.raises(IntervalError):
        Interval(F(2), F(1))


def test_infinite_endpoints_are_rejected():
    with pytest.raises(TypeError):
        Interval(None, 1)
    with pytest.raises(TypeError):
        Interval.open(None, 1)


@pytest.mark.parametrize("fields, error", [
    ((F(2), F(1), True, True), IntervalError),
    ((F(1), F(1), True, False), IntervalError),
    ((F(1), F(1), False, True), IntervalError),
    ((0.5, 1, True, True), TypeError),
], ids=["reversed", "open upper point", "open lower point", "float"])
def test_every_way_of_building_an_interval_validates(fields, error):
    """The constructor, _make, _replace, copy and pickle all check the
    fields: a forged record, built past the checks, cannot be copied."""
    forged = tuple.__new__(Interval, fields)
    names = Interval._fields
    for build in (lambda: Interval(*fields),
                  lambda: Interval(**dict(zip(names, fields))),
                  lambda: Interval._make(fields),
                  lambda: Interval(F(0), F(3))._replace(**dict(zip(names, fields))),
                  lambda: copy.copy(forged),
                  lambda: copy.deepcopy(forged),
                  lambda: pickle.loads(pickle.dumps(forged))):
        with pytest.raises(error):
            build()
    good = Interval(F(0), F(1), True, False)
    assert copy.copy(good) == copy.deepcopy(good) == pickle.loads(pickle.dumps(good)) == good
    assert good._replace(upper_closed=True) == Interval.closed(0, 1)


def test_convenience_constructors_validate():
    with pytest.raises(IntervalError):
        Interval.open(1, 1)
    with pytest.raises(IntervalError):
        Interval.closed(2, 1)
    with pytest.raises(TypeError):
        Interval.point(0.5)
    assert Interval.point(1) == Interval(F(1), F(1))


@pytest.mark.parametrize("call", [
    lambda s: s.shift(0.5),
    lambda s: s.shift(0.0),
    lambda s: IntervalSet.EMPTY.shift(0.5),
    lambda s: IntervalSet.EMPTY.shift(0.0),
    lambda s: s.components[0].shift(0.0),
    lambda s: s.complement(0.0, 2),
    lambda s: s.complement(0, 2.0),
    lambda s: IntervalSet.EMPTY.complement(0.0, 1),
    lambda s: IntervalSet.span(0.0, 1),
    lambda s: IntervalSet.span(1, 0.5),
], ids=["shift", "shift by 0", "shift empty", "shift empty by 0", "shift interval by 0",
        "complement lo", "complement hi", "complement of empty", "span", "empty span"])
def test_floats_are_rejected_at_every_entry(call):
    """Records that the algebra builds skip the checks of Interval.__new__,
    so each number entering it is checked, whatever the set holds."""
    with pytest.raises(TypeError):
        call(iset(Interval.open(0, 1)))


def test_only_the_set_signal_and_kernel_layers_build_unchecked_records():
    """The engine's kernels (semantics.py) build their truth pieces valid by
    construction; the enumerator, the oracle and the CLI check every record."""
    src = Path(intervals.__file__).parent
    users = {p.name for p in src.glob("*.py") if "_unchecked" in p.read_text(encoding="utf-8")}
    assert users == {"intervals.py", "signals.py", "semantics.py"}


def test_in_asks_for_membership_not_a_field():
    """An Interval is a tuple underneath; ``in`` still tests the point set."""
    iv = Interval.open(0, 1)
    assert F(1, 2) in iv
    assert 0 not in iv and False not in iv  # the lower end and a closed flag
    with pytest.raises(TypeError):
        0.5 in iv
    s = IntervalSet([iv, Interval.point(2)])
    assert s != s.components and s.components != s


def test_normalize_merges_touching_pieces():
    # [0,1) followed by [1,2] is one solid block.
    assert iset(Interval(0, 1, True, False), Interval.closed(1, 2)) == iset(Interval.closed(0, 2))
    # A closed endpoint glues a point to an open interval.
    assert iset(Interval.point(0), Interval.open(0, 1)) == iset(Interval(0, 1, True, False))
    # (0,1) and (1,2) stay apart: the shared endpoint belongs to neither.
    assert len(iset(Interval.open(0, 1), Interval.open(1, 2))) == 2


def test_union_examples():
    a = iset(Interval.open(0, 1))
    b = IntervalSet.point(1)
    assert a.union(b) == iset(Interval(0, 1, False, True))


def test_shift():
    a = iset(Interval.open(0, 1))
    assert a.shift(F(-1, 3)) == iset(Interval.open(F(-1, 3), F(2, 3)))
    assert a.shift(F(1, 2)).shift(F(-1, 2)) == a


def test_membership_bisect():
    a = iset(Interval.open(0, 1), Interval.point(2), Interval.open(3, 10 ** 6 + 1))
    assert not a.contains(0)
    assert a.contains(F(1, 2))
    assert not a.contains(1)
    assert a.contains(2)
    assert not a.contains(3)
    assert a.contains(10 ** 6)
    assert not a.contains(10 ** 6 + 1)


def test_complement_within_a_span():
    a = iset(Interval.open(0, 1), Interval.closed(2, 3))
    # the first component is open at lo, which leaves the point lo itself
    assert a.complement(0, 4) == iset(Interval.point(0), Interval(1, 2, True, False),
                                      Interval(3, 4, False, False))
    # the span cuts into components and may leave nothing
    assert a.complement(F(1, 2), F(5, 2)) == iset(Interval(1, 2, True, False))
    assert a.complement(2, 3) == IntervalSet.EMPTY
    assert IntervalSet.EMPTY.complement(0, 1) == IntervalSet.span(0, 1)
    assert a.complement(1, 1) == IntervalSet.EMPTY


# ------------------------------------------------------------------ strategies

@st.composite
def rationals(draw, max_den=12, span=6):
    den = draw(st.integers(1, max_den))
    num = draw(st.integers(-span * den, span * den))
    return F(num, den)


@st.composite
def interval_sets(draw, max_cuts=8, points=rationals()):
    cuts = sorted(draw(st.lists(points, max_size=max_cuts, unique=True)))
    ivs = []
    i = 0
    while i < len(cuts):
        if i + 1 < len(cuts) and draw(st.booleans()):
            lc, uc = draw(st.booleans()), draw(st.booleans())
            ivs.append(Interval(cuts[i], cuts[i + 1], lc, uc))
            i += 2
        else:
            ivs.append(Interval(cuts[i], cuts[i]))  # keeps an int an int
            i += 1
    return IntervalSet(ivs)


# even, so that the midpoint of two endpoints is an int as well
even_ints = st.integers(-12, 12).map(lambda k: 2 * k)


def covering_span(*sets):
    """A span [lo, hi) holding every set, one unit past its outermost endpoints."""
    ends = [e for s in sets for c in s for e in (c.lower, c.upper)] or [F(0)]
    return min(ends) - 1, max(ends) + 1


def sample_points(*sets, extra=()):
    """Component endpoints and the extra points, their midpoints, and a
    little padding around them."""
    finite = sorted({e for s in sets for c in s for e in (c.lower, c.upper)} | set(extra))
    pts = set(finite)
    for a, b in zip(finite, finite[1:]):
        pts.add((a + b) / 2)
    if finite:
        pts.add(finite[0] - 1)
        pts.add(finite[-1] + 1)
    else:
        pts.add(F(0))
    return pts


@settings(max_examples=200, deadline=None)
@given(interval_sets() | interval_sets(points=even_ints))
def test_membership_matches_a_scan_of_the_components(a):
    ends = sorted({e for c in a for e in (c.lower, c.upper)})
    mids = [(x + y) // 2 if type(x) is int else (x + y) / 2 for x, y in zip(ends, ends[1:])]
    pad = [ends[0] - 1, ends[-1] + 1] if ends else [0]
    for x in ends + mids + pad:
        assert a.contains(x) == any(c.contains(x) for c in a), x


@settings(max_examples=120, deadline=None)
@given(interval_sets(), interval_sets())
def test_boolean_algebra_pointwise(a, b):
    union = a.union(b)
    inter = a.intersection(b)
    diff = a.difference(b)
    lo, hi = covering_span(a, b)
    comp = a.complement(lo, hi)
    for x in sample_points(a, b):
        ax, bx = a.contains(x), b.contains(x)
        assert union.contains(x) == (ax or bx)
        assert inter.contains(x) == (ax and bx)
        assert diff.contains(x) == (ax and not bx)
        assert comp.contains(x) == (lo <= x < hi and not ax)


@settings(max_examples=200, deadline=None)
@given(interval_sets(), st.data())
def test_complement_of_any_span_pointwise(a, data):
    # lo is often the first lower endpoint, so an open first component
    # leaves a point gap at lo; the span may also cut into components
    first = st.just(a.components[0].lower) if a else st.nothing()
    ends = st.sampled_from([e for c in a for e in (c.lower, c.upper)]) if a else st.nothing()
    lo, hi = data.draw(first | rationals()), data.draw(ends | rationals())
    comp = a.complement(lo, hi)
    assert IntervalSet(comp.components) == comp
    for x in sample_points(a, extra=(lo, hi)):
        assert comp.contains(x) == (lo <= x < hi and not a.contains(x))


@settings(max_examples=120, deadline=None)
@given(interval_sets(), interval_sets())
def test_de_morgan(a, b):
    lo, hi = covering_span(a, b)
    assert (a.union(b).complement(lo, hi)
            == a.complement(lo, hi).intersection(b.complement(lo, hi)))


@settings(max_examples=200, deadline=None)
@given(interval_sets(), interval_sets())
def test_algebra_returns_normal_forms(a, b):
    lo, hi = covering_span(a, b)
    for out in (a.union(b), a.intersection(b), a.difference(b), a.complement(lo, hi)):
        assert IntervalSet(out.components) == out


@settings(max_examples=200, deadline=None)
@given(interval_sets(), interval_sets())
def test_linear_passes_match_the_sorting_constructor(a, b):
    # references: a union normalized by the constructor's sort, and the De
    # Morgan intersection (the span minus the union of complements) built on it
    assert a.union(b) == IntervalSet(a.components + b.components)
    lo, hi = covering_span(a, b)
    comps = a.complement(lo, hi).components + b.complement(lo, hi).components
    assert a.intersection(b) == IntervalSet(comps).complement(lo, hi)


@settings(max_examples=120, deadline=None)
@given(interval_sets())
def test_complement_involution(a):
    lo, hi = covering_span(a)
    assert a.complement(lo, hi).complement(lo, hi) == a


@settings(max_examples=100, deadline=None)
@given(interval_sets(), rationals())
def test_shift_inverse(a, d):
    assert a.shift(d).shift(-d) == a


@settings(max_examples=100, deadline=None)
@given(interval_sets())
def test_normal_form_unique_under_resplitting(a):
    # Chop every component into touching halves; normalization must rebuild a.
    pieces = []
    for c in a:
        if c.is_point:
            pieces.append(c)
            continue
        mid = (c.lower + c.upper) / 2
        pieces.append(Interval(c.lower, mid, c.lower_closed, True))
        pieces.append(Interval(mid, c.upper, False, c.upper_closed))
    pieces.reverse()
    assert IntervalSet(pieces) == a


# ------------------------------------------------------------------ text forms

def test_rational_text():
    assert parse_rational("-1/3") == F(-1, 3)
    assert parse_rational("4/6") == F(2, 3)
    assert format_rational(F(2, 1)) == "2"
    with pytest.raises(TextFormatError):
        parse_rational("1/0")
    with pytest.raises(TextFormatError):
        parse_rational("0.5")
    # past Python's limit on the digits of an int: still a format error
    with pytest.raises(TextFormatError, match="too long"):
        parse_rational("1" * 5000)
    with pytest.raises(TextFormatError, match="too long"):
        parse_rational("1/" + "3" * 5000)


def test_interval_text_roundtrip():
    for text in ["[0,0]", "(1/3,2/3)", "[-1/2,3)", "(-2,-1]"]:
        assert str(parse_interval(text)) == text
    with pytest.raises(TextFormatError):
        parse_interval("[1,0]")
    with pytest.raises(TextFormatError):
        parse_interval("[0,1) extra")


def test_interval_list_text():
    assert parse_interval_list("{}") == IntervalSet.EMPTY
    assert format_interval_list(IntervalSet.EMPTY) == "{}"
    s = parse_interval_list("[0,0],(1/3,2/3)")
    assert s == iset(Interval.point(0), Interval.open(F(1, 3), F(2, 3)))
    assert format_interval_list(s) == "[0,0],(1/3,2/3)"
    # braces tolerated on input
    assert parse_interval_list("{[0,0],(1/3,2/3)}") == s
    with pytest.raises(TextFormatError):
        parse_interval_list("[0,1);(1,2)")
    with pytest.raises(TextFormatError):
        parse_interval_list("")


@settings(max_examples=80, deadline=None)
@given(interval_sets())
def test_interval_list_text_roundtrip(a):
    assert parse_interval_list(format_interval_list(a)) == a


@st.composite
def raw_interval_lists(draw):
    """Valid intervals, sorted or shuffled, often overlapping, touching or
    repeated, and their text with ends written reduced or not."""
    ivs = []
    for _ in range(draw(st.integers(1, 7))):
        lo = draw(rationals(max_den=2, span=2))
        hi = lo + draw(st.sampled_from([0, F(1, 2), 1, F(3, 2)]))
        flags = (True, True) if lo == hi else (draw(st.booleans()), draw(st.booleans()))
        ivs.append(Interval(lo, hi, *flags))
        if draw(st.booleans()):
            ivs.append(ivs[-1])
    ivs = sorted(ivs, key=intervals._lower_key) if draw(st.booleans()) else draw(st.permutations(ivs))
    k = draw(st.integers(1, 3))

    def text(q):
        return f"{q.numerator * k}/{q.denominator * k}" if draw(st.booleans()) else str(q)

    return ivs, ",".join(f"{'[' if iv.lower_closed else '('}{text(iv.lower)},{text(iv.upper)}"
                         f"{']' if iv.upper_closed else ')'}" for iv in ivs)


@settings(max_examples=300, deadline=None)
@given(raw_interval_lists())
def test_reader_matches_the_constructor(case):
    """Only a list in normal form as written skips the constructor, so any
    other order, overlap, touch or repeat still normalizes."""
    ivs, text = case
    got = parse_interval_list(text)
    assert got == IntervalSet(ivs)
    assert all(type(e) is F for c in got for e in (c.lower, c.upper))


def test_reader_coalesces_ordered_touching_lists(monkeypatch):
    for text, want in [("[0,1),[1,2)", "[0,2)"), ("(0,1],(1,2)", "(0,2)"),
                       ("[0,1),(1,2)", "[0,1),(1,2)"), ("[-2/4,1],[1,1],[2/2,3/2)", "[-1/2,3/2)"),
                       ("(0,1),(1/2,2),[2,2]", "(0,2]"), ("[0,1],[0,1]", "[0,1]")]:
        assert format_interval_list(parse_interval_list(text)) == want
    # a list in normal form as written is wrapped, not normalized again
    built = []
    monkeypatch.setattr(intervals.IntervalSet, "__init__", lambda self, items=(): built.append(1))
    assert str(parse_interval_list("[-1,0),(0,1/2],(2/3,3)")) == "{[-1,0),(0,1/2],(2/3,3)}"
    assert not built


class _Scanner:
    """The hand-written character scanner that read interval text before one
    compiled pattern did: the reference for the parity test below."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, chars):
        self.skip_ws()
        ch = self.peek()
        if ch not in chars or ch == "":
            raise TextFormatError(
                f"at position {self.pos}: expected one of {sorted(chars)}, got {ch!r}"
            )
        self.pos += 1
        return ch

    def rational(self):
        self.skip_ws()
        m = _RATIONAL_RE.match(self.text, self.pos)
        if not m:
            raise TextFormatError(f"at position {self.pos}: expected a rational")
        self.pos = m.end()
        return parse_rational(m.group())

    def interval(self):
        opener = self.expect("[(")
        lo = self.rational()
        self.expect(",")
        hi = self.rational()
        closer = self.expect("])")
        try:
            return Interval(lo, hi, opener == "[", closer == "]")
        except IntervalError as exc:
            raise TextFormatError(f"at position {self.pos}: {exc}") from exc


def scanned_interval(text):
    sc = _Scanner(text)
    iv = sc.interval()
    sc.skip_ws()
    if sc.pos != len(text):
        raise TextFormatError(f"at position {sc.pos}: trailing input after interval")
    return iv


def scanned_interval_list(text):
    s = text.strip()
    if s == "{}":
        return IntervalSet.EMPTY
    if s.startswith("{") and s.endswith("}"):
        s = s[1:-1].strip()
    if not s:
        raise TextFormatError("empty interval list must be written {}")
    sc = _Scanner(s)
    items = [sc.interval()]
    sc.skip_ws()
    while sc.pos < len(s):
        sc.expect(",")
        items.append(sc.interval())
        sc.skip_ws()
    return IntervalSet(items)


# blanks (ASCII and Unicode), digits (ASCII and Arabic-Indic), and the
# fragments that make or break an interval list
_BLANKS = [" ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\u200b"]
_FRAGMENTS = _BLANKS + list("0123456789[]()-/,;{}") + [
    "\u0663", "\u0660", "1/0", "0.5", "-1/3", "2/4", ", ", "],[", ")(", "{}", "+1", "e3"]


def _blank(rng):
    return "".join(rng.choice(_BLANKS[:6]) for _ in range(rng.choice((0, 0, 0, 1, 2))))


def _valid_list(rng):
    """An interval list with blanks around its tokens and, maybe, braces."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        lo = F(rng.randint(-9, 9), rng.randint(1, 4))
        hi = lo + F(rng.randint(0, 9), rng.randint(1, 4))
        opener, closer = ("[", "]") if lo == hi else (rng.choice("[("), rng.choice("])"))
        ends = [str(q) if rng.random() < 0.7 else f"{q.numerator * 2}/{q.denominator * 2}"
                for q in (lo, hi)]
        b = [_blank(rng) for _ in range(6)]
        parts.append(f"{b[0]}{opener}{b[1]}{ends[0]}{b[2]},{b[3]}{ends[1]}{b[4]}{closer}{b[5]}")
    text = ",".join(parts)
    return f"{{{text}}}" if rng.random() < 0.3 else text


def _mutate(rng, text):
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.4:  # insert a fragment
            text = text[:i] + rng.choice(_FRAGMENTS) + text[i:]
        elif op < 0.7:  # delete a character
            text = text[:i] + text[i + 1:]
        else:  # replace a character
            text = text[:i] + rng.choice(_FRAGMENTS) + text[i + 1:]
    return text


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except TextFormatError as exc:
        return "error", str(exc)


def test_pattern_parser_matches_the_character_scanner():
    rng = random.Random(20260301)
    accepted = rejected = 0
    for _ in range(20000):
        base = _valid_list(rng)
        if rng.random() < 0.3:  # a single interval, so parse_interval accepts too
            base = base.strip().strip("{}").split("],")[0].split("),")[0]
            base += "" if base.rstrip()[-1:] in ("]", ")") else rng.choice("])")
        text = _mutate(rng, base)
        for parse, reference in ((parse_interval, scanned_interval),
                                 (parse_interval_list, scanned_interval_list)):
            got, want = _outcome(parse, text), _outcome(reference, text)
            assert got[0] == want[0], (parse.__name__, text, got, want)
            if got[0] == "ok":
                assert got[1] == want[1], (parse.__name__, text)
                accepted += 1
            else:
                assert ("at position" in got[1]
                        or got[1] == "empty interval list must be written {}"), (text, got)
                rejected += 1
    # the mutations reach both sides of the grammar
    assert accepted > 5000 and rejected > 5000, (accepted, rejected)
