"""Elementary CA rules, evolution, embedding, and rendering."""

from __future__ import annotations

import copy
import json
import pickle
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obskit.ca import (
    EmbeddedSystem,
    ca_evolution,
    ca_step,
    damping_observer,
    embed,
    pbm_bytes,
    render_text,
    rule_table,
    run_embedded,
    transparent_observer,
)
from obskit.core import Observer
from obskit.errors import DefinitionError, EncodingError, ObskitError

from conftest import block_observer_oracle, eca_oracle_run, embedded_oracle_run
from test_composition import assert_built_alike

RULE_110_TABLE = {
    (1, 1, 1): 0,
    (1, 1, 0): 1,
    (1, 0, 1): 1,
    (1, 0, 0): 0,
    (0, 1, 1): 1,
    (0, 1, 0): 1,
    (0, 0, 1): 1,
    (0, 0, 0): 0,
}

# single seed at index 15 on a width-31 ring, 15 steps of rule 110
ROW_15_REFERENCE = "##.#.##..#####.#..............."


def single_seed(width: int) -> tuple[int, ...]:
    return tuple(1 if i == width // 2 else 0 for i in range(width))


# -- rule tables -----------------------------------------------------------

def test_rule_110_table_matches_its_binary_expansion():
    assert rule_table(110).table == RULE_110_TABLE


def test_rule_0_and_rule_255_are_constant():
    assert set(rule_table(0).table.values()) == {0}
    assert set(rule_table(255).table.values()) == {1}


def test_rule_number_out_of_range():
    for bad in (-1, 256, 1000, np.int64(256), 1.0, 110.0, np.float64(110), "110", None, np.array([1, 2])):
        with pytest.raises(DefinitionError, match=r"^rule number must be in 0\.\.255, got "):
            rule_table(bad)


@pytest.mark.parametrize("number, want", [(np.int64(110), 110), (np.uint8(30), 30), (True, 1), (False, 0)],
                         ids=["numpy-int64", "numpy-uint8", "true", "false"])
def test_a_rule_number_is_read_as_an_index_and_stored_as_a_plain_int(number, want):
    rule = rule_table(number)
    assert type(rule.number) is int and rule.number == want and repr(rule) == f"CARule(number={want})"
    assert rule == rule_table(want) and hash(rule) == hash(rule_table(want))
    assert ca_evolution(single_seed(9), rule, 3) == ca_evolution(single_seed(9), rule_table(want), 3)


def test_all_256_rules_round_trip():
    for n in range(256):
        table = rule_table(n).table
        rebuilt = sum(bit << (4 * a + 2 * b + c) for (a, b, c), bit in table.items())
        assert rebuilt == n


def test_calling_a_rule_reads_its_table():
    for n in range(256):
        rule = rule_table(n)
        for abc in product((0, 1), repeat=3):
            assert rule(*abc) == rule.table[abc]
    assert rule_table(110)(True, 1.0, 0) == 1
    with pytest.raises(DefinitionError, match=r"^a neighborhood must be three bits, got \(2, 0, 0\)$"):
        rule_table(110)(2, 0, 0)


# -- stepping -----------------------------------------------------------------

def test_single_seed_grows_leftward():
    rule = rule_table(110)
    row = ca_step(single_seed(9), rule)
    assert row == (0, 0, 0, 1, 1, 0, 0, 0, 0)


def test_all_zero_is_a_fixed_point_of_rule_110():
    rule = rule_table(110)
    assert ca_step((0,) * 12, rule) == (0,) * 12


def test_rule_0_annihilates_everything():
    rule = rule_table(0)
    assert ca_step((1, 0, 1, 1, 0), rule) == (0,) * 5


def test_width_below_three_rejected():
    with pytest.raises(DefinitionError):
        ca_step((1, 0), rule_table(110))


def test_non_bit_cells_rejected():
    with pytest.raises(DefinitionError):
        ca_step((0, 2, 0), rule_table(110))


def test_fifteen_step_evolution_matches_frozen_reference_and_oracle():
    rows = ca_evolution(single_seed(31), rule_table(110), 15)
    assert "".join("#" if b else "." for b in rows[15]) == ROW_15_REFERENCE
    assert list(rows) == eca_oracle_run(single_seed(31), 110, 15)


@pytest.mark.parametrize("widths, steps", [(range(3, 21), 4), ((63, 64, 65), 3), ((1023, 1024, 1025), 2)])
def test_every_rule_evolves_like_the_oracle(widths, steps):
    rng = random.Random(steps)
    for number in range(256):
        rule = rule_table(number)
        for width in widths:
            cells = tuple(rng.randint(0, 1) for _ in range(width))
            assert list(ca_evolution(cells, rule, steps)) == eca_oracle_run(cells, number, steps)


@pytest.mark.parametrize("cells", [[True, False, True, False], (1.0, 0.0, 1, 0), np.array([1, 0, 1, 0]),
                                   np.array([1, 0, 1, 0], dtype=bool)],
                         ids=["bools", "floats", "numpy", "numpy-bools"])
def test_row_zero_holds_int_bits_whatever_the_cells_were(cells):
    rule = rule_table(110)
    system = embed(rule, cells, 1, transparent_observer(rule, 2))
    for row in ca_evolution(cells, rule, 2)[0], system.lattice, run_embedded(system, 1)[0][0]:
        assert repr(row) == "(1, 0, 1, 0)" and {type(cell) for cell in row} == {int}
    assert json.dumps(ca_evolution(cells, rule, 1)) == "[[1, 0, 1, 0], [1, 1, 1, 1]]"


def test_shift_equivariance():
    rng = random.Random(8)
    rule = rule_table(110)
    for _ in range(25):
        width = rng.randint(5, 24)
        cells = tuple(rng.randint(0, 1) for _ in range(width))
        shift = rng.randrange(width)
        rotated = cells[shift:] + cells[:shift]
        stepped = ca_step(cells, rule)
        assert ca_step(rotated, rule) == stepped[shift:] + stepped[:shift]


# -- embedding ---------------------------------------------------------------------

def test_embed_accepts_matching_alphabets():
    rule = rule_table(110)
    obs = transparent_observer(rule, 3)
    assert len(obs.states) == 8 and len(obs.inputs) == 4 and len(obs.outputs) == 4
    system = embed(rule, (0,) * 12, 4, obs)
    assert system.block_width == 3


def test_embed_rejects_non_power_of_two_state_count():
    rule = rule_table(110)
    base = transparent_observer(rule, 3)
    states = base.states[:7]
    with pytest.raises(EncodingError):
        embed(rule, (0,) * 12, 4, Observer(
            states=states,
            inputs=base.inputs,
            outputs=base.outputs,
            transition={(x, y): states[0] for x in states for y in base.inputs},
            output_map={x: base.outputs[0] for x in states},
        ))


def test_embed_rejects_wrong_input_count():
    rule = rule_table(110)
    obs = Observer(
        states=("a", "b"), inputs=("u",), outputs=("p0", "p1", "p2", "p3"),
        transition={("a", "u"): "a", ("b", "u"): "b"},
        output_map={"a": "p0", "b": "p0"},
    )
    with pytest.raises(EncodingError):
        embed(rule, (0,) * 8, 2, obs)


def test_embed_rejects_block_wider_than_lattice():
    rule = rule_table(110)
    obs = transparent_observer(rule, 3)
    with pytest.raises(DefinitionError):
        embed(rule, (0, 0, 0), 0, obs)  # needs width >= 5


def test_embed_rejects_wrapping_block():
    rule = rule_table(110)
    obs = transparent_observer(rule, 3)
    with pytest.raises(DefinitionError):
        embed(rule, (0,) * 8, 6, obs)


_RULE = rule_table(110)
_OBS = transparent_observer(_RULE, 2)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ca_evolution((0, 1, 0, 0), _RULE, 2.5), id="ca_evolution-steps"),
    pytest.param(lambda: transparent_observer(_RULE, 2.0), id="transparent_observer-width"),
    pytest.param(lambda: damping_observer(_RULE, "2"), id="damping_observer-width"),
    pytest.param(lambda: embed(_RULE, (0,) * 8, 1.0, _OBS), id="embed-position"),
    pytest.param(lambda: run_embedded(embed(_RULE, (0,) * 8, 1, _OBS), 3.0), id="run_embedded-steps"),
])
def test_non_integer_counts_and_positions_are_definition_errors(call):
    with pytest.raises(DefinitionError, match="must be an integer"):
        call()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ca_evolution((0, 1, 0, 0), _RULE, -1), "steps must be non-negative",
                 id="ca_evolution-steps"),
    pytest.param(lambda: run_embedded(embed(_RULE, (0,) * 8, 1, _OBS), -2), "steps must be non-negative",
                 id="run_embedded-steps"),
    pytest.param(lambda: transparent_observer(_RULE, 0), "block width must be at least 1",
                 id="transparent_observer-width"),
    pytest.param(lambda: damping_observer(_RULE, -1), "block width must be at least 1",
                 id="damping_observer-width"),
])
def test_counts_below_their_bound_are_definition_errors(call, message):
    with pytest.raises(DefinitionError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda rule: ca_step((0, 1, 0, 0), rule), id="ca_step"),
    pytest.param(lambda rule: ca_evolution((0, 1, 0, 0), rule, 2), id="ca_evolution"),
    pytest.param(lambda rule: transparent_observer(rule, 2), id="transparent_observer"),
    pytest.param(lambda rule: damping_observer(rule, 2), id="damping_observer"),
    pytest.param(lambda rule: embed(rule, (0,) * 8, 1, _OBS), id="embed"),
])
def test_a_plain_int_rule_is_a_definition_error(call):
    with pytest.raises(DefinitionError, match="CARule"):
        call(110)


@pytest.mark.parametrize("args, error", [
    pytest.param((110, (0,) * 8, 1, _OBS), DefinitionError, id="int-rule"),
    pytest.param((_RULE, (0,) * 8, 1.0, _OBS), DefinitionError, id="float-start"),
    pytest.param((_RULE, (0, 2, 0, 0, 0), 1, _OBS), DefinitionError, id="non-bit-lattice"),
    pytest.param((_RULE, (0,) * 8, 7, _OBS), DefinitionError, id="wrapping-block"),
    pytest.param((_RULE, (0,) * 8, -1, _OBS), DefinitionError, id="negative-start"),
    pytest.param((_RULE, (0,) * 3, 0, _OBS), DefinitionError, id="no-room-for-environment"),
])
def test_a_directly_built_embedded_system_is_checked(args, error):
    with pytest.raises(error):
        EmbeddedSystem(*args)


@pytest.mark.parametrize("observer", [None, "obs", 4], ids=["none", "str", "int"])
def test_an_observer_that_is_not_an_observer_is_a_definition_error(observer):
    with pytest.raises(DefinitionError, match="Observer"):
        embed(_RULE, (0,) * 8, 1, observer)
    with pytest.raises(DefinitionError, match="Observer"):
        EmbeddedSystem(_RULE, (0,) * 8, 1, observer)


@pytest.mark.parametrize("call", [
    pytest.param(lambda cells: ca_evolution(cells, _RULE, 2), id="ca_evolution"),
    pytest.param(lambda cells: embed(_RULE, cells, 1, _OBS), id="embed"),
    pytest.param(lambda cells: EmbeddedSystem(_RULE, cells, 1, _OBS), id="EmbeddedSystem"),
])
@pytest.mark.parametrize("cells", [5, None], ids=["int", "none"])
def test_a_lattice_that_is_not_iterable_is_a_definition_error(call, cells):
    with pytest.raises(DefinitionError, match="lattice"):
        call(cells)


@pytest.mark.parametrize("system", [None, 110, ("not", "a", "system")], ids=["none", "int", "tuple"])
def test_running_what_is_not_an_embedded_system_is_a_definition_error(system):
    with pytest.raises(DefinitionError, match="EmbeddedSystem"):
        run_embedded(system, 3)


def test_a_directly_built_embedded_system_equals_the_embedded_one():
    system = EmbeddedSystem(_RULE, [0, 1] * 4, 3, _OBS)
    assert system == embed(_RULE, (0, 1) * 4, 3, _OBS)
    assert run_embedded(system, 5) == run_embedded(embed(_RULE, (0, 1) * 4, 3, _OBS), 5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_block_width_is_the_observers_state_code_and_no_field(k):
    system = EmbeddedSystem(_RULE, (0,) * 8, 1, transparent_observer(_RULE, k))
    assert system.block_width == k
    assert EmbeddedSystem._fields == ("rule", "lattice", "block_start", "observer")
    assert "block_width" not in repr(system)
    with pytest.raises(TypeError):
        EmbeddedSystem(_RULE, (0,) * 8, 1, k, transparent_observer(_RULE, k))


def test_zero_steps_returns_initial_row_and_empty_trace():
    rule = rule_table(110)
    system = embed(rule, single_seed(11), 1, transparent_observer(rule, 3))
    rows, trace = run_embedded(system, 0)
    assert rows == (single_seed(11),)
    assert len(trace) == 0


def test_transparent_embedding_equals_pure_rule_exhaustively():
    rule = rule_table(110)
    obs = transparent_observer(rule, 1)
    for width in range(3, 11):
        for cells in product((0, 1), repeat=width):
            system = embed(rule, cells, 1, obs)
            rows, _ = run_embedded(system, 8)
            assert rows == ca_evolution(cells, rule, 8)


def test_transparent_embedding_equals_pure_rule_on_random_wide_lattices():
    rule = rule_table(110)
    rng = random.Random(60902)
    for _ in range(60):
        k = rng.choice((1, 2, 3, 4))
        width = rng.randint(k + 2, 40)
        cells = tuple(rng.randint(0, 1) for _ in range(width))
        start = rng.randint(0, width - k)
        system = embed(rule, cells, start, transparent_observer(rule, k))
        rows, trace = run_embedded(system, 16)
        assert rows == ca_evolution(cells, rule, 16)
        # the trace's state is always the block content of the matching row
        for record in trace:
            row = rows[record.t + 1]
            held = system.observer.states.index(record.x)
            code = 0
            for bit in row[start:start + k]:
                code = (code << 1) | bit
            assert held == code


def random_block_observer(rng: random.Random, k: int) -> Observer:
    states = tuple(f"q{i}" for i in range(2 ** k))
    inputs = tuple(f"in{j}" for j in range(4))
    outputs = tuple(f"act{j}" for j in range(4))
    return Observer(
        states=states, inputs=inputs, outputs=outputs,
        transition={(x, y): rng.choice(states) for x in states for y in inputs},
        output_map={x: rng.choice(outputs) for x in states},
    )


def test_random_observers_match_the_per_cell_oracle_at_every_block_start():
    # covers both wrap-around sensors (start 0 reads cell w-1, start w-k
    # reads cell 0) and k = 1, where both action bits land on one cell
    rng = random.Random(5150)
    for k in (1, 2, 3, 4):
        for width in range(k + 2, k + 8):
            for start in range(width - k + 1):
                number = rng.randrange(256)
                cells = tuple(rng.randint(0, 1) for _ in range(width))
                obs = random_block_observer(rng, k)
                rows, trace = run_embedded(embed(rule_table(number), cells, start, obs), 6)
                want_rows, want_records = embedded_oracle_run(cells, number, start, obs, 6)
                assert list(rows) == want_rows
                assert [(r.t, r.y, r.x, r.z, r.s) for r in trace] == want_records


def test_random_observers_match_the_per_cell_oracle_on_wide_lattices():
    # both wrap edges, where one sensor reads across the seam, on rows far wider than a machine word
    rng = random.Random(8086)
    for k in (1, 2, 3, 4, 5):
        width = rng.randint(500, 1100)
        cells = tuple(rng.randint(0, 1) for _ in range(width))
        for start in (0, width - k, rng.randint(1, width - k - 1)):
            number, obs = rng.randrange(256), random_block_observer(rng, k)
            rows, trace = run_embedded(embed(rule_table(number), cells, start, obs), 12)
            want_rows, want_records = embedded_oracle_run(cells, number, start, obs, 12)
            assert list(rows) == want_rows
            assert [(r.t, r.y, r.x, r.z, r.s) for r in trace] == want_records


def test_each_trace_record_holds_the_diagram_row_itself():
    rule = rule_table(30)
    rng = random.Random(77)
    cells = tuple(rng.randint(0, 1) for _ in range(300))
    for obs in (transparent_observer(rule, 3), random_block_observer(rng, 2)):
        rows, trace = run_embedded(embed(rule, cells, 40, obs), 50)
        assert all(trace.steps[t].s is rows[t + 1] for t in range(50))


def test_damping_observer_absorbs_an_incoming_pattern():
    rule = rule_table(110)
    width, start, k = 31, 5, 3
    cells = tuple(1 if i == 20 else 0 for i in range(width))
    system = embed(rule, cells, start, damping_observer(rule, k))
    rows, _ = run_embedded(system, 20)
    assert any(any(row[start + k:]) for row in rows)  # the pattern really ran
    for row in rows:
        assert not any(row[:start]), "pattern crossed the damping block"


def test_block_observers_match_their_two_step_construction():
    rng = random.Random(110)
    sampled = {30, 90, 110, 184, *rng.sample(range(256), 24)}
    for number in range(256):
        rule = rule_table(number)
        for k in (1, 2, 3, 4) if number in sampled else (1, 2, 3):
            for built, oracle in ((transparent_observer(rule, k), block_observer_oracle(number, k)),
                                  (damping_observer(rule, k), block_observer_oracle(number, k, damping=True))):
                assert_built_alike(built, oracle)


def test_a_block_names_the_width_it_read():
    rule = rule_table(110)
    assert transparent_observer(rule, True).boundary == "transparent block of 1 cells"
    assert damping_observer(rule, True).boundary == "damping block of 1 cells"


# -- rendering ---------------------------------------------------------------------

def test_render_text_uses_dots_and_hashes():
    assert render_text([(0, 1, 0), (1, 1, 1)]) == ".#.\n###"


def decode_p4(image: bytes):
    """Rows of a P4 image, each row's padding bits checked to be zero."""
    magic, dims, body = image.split(b"\n", 2)
    assert magic == b"P4"
    width, height = map(int, dims.split())
    stride = (width + 7) // 8
    assert len(body) == stride * height
    rows = []
    for r in range(height):
        bits = [(byte >> (7 - i)) & 1 for byte in body[r * stride:(r + 1) * stride] for i in range(8)]
        assert not any(bits[width:])
        rows.append(tuple(bits[:width]))
    return rows


def test_pbm_bytes_layout():
    image = pbm_bytes([(1, 0, 1)])
    assert image == b"P4\n3 1\n\xa0"
    wide = pbm_bytes([(1,) * 9])
    assert wide == b"P4\n9 1\n\xff\x80"
    assert pbm_bytes([()]) == b"P4\n0 1\n"
    rng = random.Random(404)
    for width in (0, 1, 7, 8, 9, 16, 17):
        for height in (1, 2, 5):
            rows = [tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(height)]
            rows[0] = (1,) * width  # a full row sets every bit next to the padding
            image = pbm_bytes(rows)
            assert image.startswith(f"P4\n{width} {height}\n".encode())
            assert decode_p4(image) == rows


def test_pbm_rejects_ragged_rows():
    with pytest.raises(DefinitionError):
        pbm_bytes([(1, 0), (1,)])


# -- rendering returned diagrams -------------------------------------------------------
# Diagrams from ca_evolution and run_embedded keep their packed rows, and the
# renderers read those; a plain-tuple copy takes the generic path.

def pbm_or_error(rows):
    try:
        return pbm_bytes(rows)
    except ObskitError as exc:
        return type(exc)


def renders(rows):
    """Text and P4 renderings of ``rows``, the P4 one possibly an error type."""
    return render_text(rows), pbm_or_error(rows)


def assert_renders_like_a_plain_copy(diagram):
    plain = tuple(map(tuple, diagram))
    assert diagram == plain and hash(diagram) == hash(plain) and repr(diagram) == repr(plain)
    want = renders(plain)
    assert renders(diagram) == want
    assert renders(pickle.loads(pickle.dumps(diagram))) == want
    assert renders(copy.deepcopy(diagram)) == want
    for part in (diagram[1:], diagram[::2], diagram + plain):
        assert renders(part) == renders(tuple(map(tuple, part)))


@pytest.mark.parametrize("name", ["_packed", "_text"])
def test_the_rows_a_diagram_keeps_cannot_be_set_or_deleted(name):
    rule = rule_table(110)
    for diagram in (ca_evolution((0, 1, 0, 0), rule, 2),
                    run_embedded(embed(rule, (0, 1, 0, 0), 1, transparent_observer(rule, 1)), 2)[0]):
        want = renders(diagram)
        with pytest.raises(AttributeError):
            setattr(diagram, name, b"0000\n1111\n0101")
        with pytest.raises(AttributeError):
            delattr(diagram, name)
        assert renders(diagram) == want
        assert renders(pickle.loads(pickle.dumps(diagram))) == renders(copy.deepcopy(diagram)) == want


def assert_rows_are_int_tuples(diagram):
    """Every row is exactly a tuple and every cell exactly an int: no bools, bytes or views."""
    assert all(type(row) is tuple and all(type(cell) is int for cell in row) for row in diagram)


def diagrams_of(number, width, steps, rng):
    """A bare run of one random row, and that row with a transparent and a damping block."""
    rule = rule_table(number)
    cells = tuple(rng.randint(0, 1) for _ in range(width))
    yield ca_evolution(cells, rule, steps)
    k = min(width - 2, rng.choice((1, 2, 3)))
    start = rng.randint(0, width - k)
    for make in (transparent_observer, damping_observer):
        yield run_embedded(embed(rule, cells, start, make(rule, k)), steps)[0]


def test_every_rule_renders_its_packed_rows_like_a_plain_copy():
    rng = random.Random(2561)
    for number in range(256):
        for width in range(3, 21):
            for diagram in diagrams_of(number, width, (number + width) % 6, rng):
                assert_rows_are_int_tuples(diagram)
                assert_renders_like_a_plain_copy(diagram)


@pytest.mark.parametrize("width", [1023, 1024, 1025])
def test_wide_diagrams_render_their_packed_rows_like_a_plain_copy(width):
    rng = random.Random(width)
    for number in range(256):
        for diagram in diagrams_of(number, width, number % 4, rng):
            assert_rows_are_int_tuples(diagram)
            plain = tuple(map(tuple, diagram))
            assert diagram == plain and renders(diagram) == renders(plain)
    for number in (30, 90, 110, 184):
        for diagram in diagrams_of(number, width, 3, rng):
            assert_renders_like_a_plain_copy(diagram)


def oracle_text(rows):
    return "\n".join("".join("#" if cell else "." for cell in row) for row in rows)


def oracle_pbm(rows):
    """The P4 image, or DefinitionError for an empty or ragged diagram."""
    rows = [[1 if cell else 0 for cell in row] for row in rows]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        return DefinitionError
    width = len(rows[0])
    image = f"P4\n{width} {len(rows)}\n".encode()
    for row in rows:
        bits = "".join(map(str, row)) + "0" * (-width % 8)
        image += bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
    return image


CELLS = (0, 1, 2, -1, True, False, None, "", "x", 0.0, 0.5, (), (0,), [])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_any_rows_render_like_the_generic_oracle(seed):
    rng = random.Random(seed)
    width = rng.randint(0, 20)
    cells = [[rng.choice(CELLS) for _ in range(width if rng.random() < 0.8 else rng.randint(0, 20))]
             for _ in range(rng.randint(0, 6))]
    shapes = (list, tuple, lambda xs: (x for x in xs))
    outer, inner = rng.choice(shapes), rng.choice(shapes)
    fresh = lambda: outer(inner(row) for row in cells)  # noqa: E731
    assert render_text(fresh()) == oracle_text(cells)
    assert pbm_or_error(fresh()) == oracle_pbm(cells)
