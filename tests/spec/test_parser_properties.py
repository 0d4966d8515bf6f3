"""Property-based spec-parser round trips."""

from hypothesis import given, strategies as st

from repro.spec import parse, parse_one
from repro.spec.parser import SpecParseError

names = st.from_regex(r"[a-z][a-z0-9]{0,6}(-[a-z0-9]{1,4})?", fullmatch=True)
versions = st.lists(
    st.integers(0, 30).map(str), min_size=1, max_size=3
).map(".".join)
variant_names = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)


@st.composite
def spec_texts(draw):
    parts = [draw(names)]
    if draw(st.booleans()):
        parts.append(f"@{draw(versions)}")
    seen_variants = set()
    for _ in range(draw(st.integers(0, 2))):
        sigil = draw(st.sampled_from(["+", "~"]))
        variant = draw(variant_names)
        if variant in seen_variants:
            continue  # conflicting repeats are a separate (error) path
        seen_variants.add(variant)
        parts.append(f"{sigil}{variant}")
    if draw(st.booleans()):
        kv = draw(variant_names)
        if kv not in seen_variants:
            parts.append(f" {kv}={draw(names)}")
    root = parts[0]
    dep_names = draw(  # a spec depending on itself is a parse error
        st.lists(names.filter(lambda n: n != root), max_size=2, unique=True)
    )
    for dep in dep_names:
        parts.append(f" ^{dep}")
        if draw(st.booleans()):
            parts.append(f"@{draw(versions)}")
    return "".join(parts)


@given(spec_texts())
def test_parse_format_parse_is_stable(text):
    first = parse_one(text)
    text2 = first.format()
    second = parse_one(text2)
    assert second.format() == text2, "formatting reaches a fixed point"


@given(spec_texts())
def test_parsed_spec_satisfies_itself_as_constraint(text):
    spec = parse_one(text)
    # node-local self-satisfaction (deps may be absent on the abstract
    # side, so compare the root node's constraints only)
    clone = parse_one(text)
    assert spec.versions.satisfies(clone.versions)
    assert spec.variants.satisfies(clone.variants)


@given(spec_texts(), spec_texts())
def test_intersects_is_symmetric(a, b):
    sa, sb = parse_one(a), parse_one(b)
    assert sa.intersects(sb) == sb.intersects(sa)


@given(spec_texts())
def test_copy_preserves_format(text):
    spec = parse_one(text)
    assert spec.copy().format() == spec.format()


@given(spec_texts(), spec_texts())
def test_constrain_produces_satisfying_spec(a, b):
    from repro.spec import UnsatisfiableSpecError

    sa, sb = parse_one(a), parse_one(b)
    if sa.name != sb.name:
        return
    try:
        sa.constrain(sb)
    except UnsatisfiableSpecError:
        return
    # after constraining, sa meets sb's node-local constraints
    assert sa.versions.satisfies(sb.versions)
    assert sa.variants.satisfies(sb.variants)


#: spec text built from the parser's own alphabet, valid or not
spec_soup = st.lists(
    st.sampled_from(
        list("abz019@:=,.+~^%/- ")
        + ["zlib", "hdf5", "mpi", "x86_64", "os=", "target=", "arch=", "namespace="]
    ),
    max_size=16,
).map("".join)


@given(st.one_of(spec_texts(), spec_soup))
def test_parse_raises_or_round_trips(text):
    """Any text either is rejected with SpecParseError or parses to
    specs whose full rendering (architecture included) parses back to
    the same specs."""
    try:
        specs = parse(text)
    except SpecParseError:
        return
    formatted = [spec.format(show_arch=True) for spec in specs]
    again = [parse_one(t) for t in formatted]
    assert again == specs
    assert [spec.format(show_arch=True) for spec in again] == formatted
