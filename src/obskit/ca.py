"""Elementary cellular automata with an embedded observer block.

All 256 elementary rules are supported; a rule number's 8-bit binary
expansion is its next-cell table, read so that neighborhood (a, b, c)
selects bit 4a + 2b + c.  Lattices are cyclic.

An embedded observer owns a contiguous block of cells.  The block bits,
read left to right, are the binary code of its current state; the two
cells just outside the block are its sensors.  Each step the observer
senses those two frontier bits, applies its transition, and the new state
pattern replaces the block while every other cell takes the ordinary
synchronous rule update (computed from pre-step values everywhere, block
included).  The observer then acts: its two output bits overwrite the
block's own boundary cells, the leftmost and rightmost cells of the block,
after the pattern write.  Those boundary cells are the neighbors the
adjacent environment cells read on the next step, so actions reach the
environment through the standard coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import Observer, Trace, TraceRecord
from .errors import DefinitionError, EncodingError

Bits = tuple[int, ...]


@dataclass(frozen=True)
class CARule:
    """An elementary rule: number plus its 8-entry neighborhood table."""

    number: int
    table: dict

    def __call__(self, left: int, center: int, right: int) -> int:
        return self.table[(left, center, right)]


def rule_table(number: int) -> CARule:
    """Build the rule whose table is the number's binary expansion."""
    if not isinstance(number, int) or not 0 <= number <= 255:
        raise DefinitionError(f"rule number must be in 0..255, got {number!r}")
    table = {
        (a, b, c): (number >> (4 * a + 2 * b + c)) & 1
        for a, b, c in product((0, 1), repeat=3)
    }
    return CARule(number=number, table=table)


def _check_cells(cells) -> Bits:
    cells = tuple(cells)
    if len(cells) < 3:
        raise DefinitionError("lattice width must be at least 3")
    if any(b not in (0, 1) for b in cells):
        raise DefinitionError("lattice cells must be bits")
    return cells


def ca_step(cells, rule: CARule) -> Bits:
    """One synchronous update of a cyclic lattice."""
    cells = _check_cells(cells)
    w = len(cells)
    return tuple(
        rule.table[(cells[i - 1], cells[i], cells[(i + 1) % w])] for i in range(w)
    )


def ca_evolution(cells, rule: CARule, steps: int) -> tuple[Bits, ...]:
    """The initial row plus ``steps`` updates."""
    if steps < 0:
        raise DefinitionError("steps must be non-negative")
    rows = [_check_cells(cells)]
    for _ in range(steps):
        rows.append(ca_step(rows[-1], rule))
    return tuple(rows)


def _bits_of(code: int, width: int) -> Bits:
    return tuple((code >> (width - 1 - i)) & 1 for i in range(width))


def _code_of(bits: Bits) -> int:
    code = 0
    for b in bits:
        code = (code << 1) | b
    return code


@dataclass(frozen=True)
class EmbeddedSystem:
    """A rule, a lattice, and the observer owning a block of its cells."""

    rule: CARule
    lattice: Bits
    block_start: int
    block_width: int
    observer: Observer


def embed(rule: CARule, lattice, block_start: int, observer: Observer) -> EmbeddedSystem:
    """Designate a block of lattice cells as an embedded observer.

    The observer's sets are matched to the block positionally: state number
    i encodes the block bit pattern with value i, inputs and outputs number
    the four (left bit, right bit) pairs as 2*left + right.  The block must
    leave at least two cells of environment on the lattice.
    """
    lattice = _check_cells(lattice)
    width = len(lattice)
    n_states = len(observer.states)
    block_width = n_states.bit_length() - 1
    if block_width < 1 or 2 ** block_width != n_states:
        raise EncodingError(
            f"observer needs a power-of-two state count to encode a block, got {n_states}"
        )
    if len(observer.inputs) != 4:
        raise EncodingError(
            f"observer needs exactly 4 inputs for the two frontier bits, got {len(observer.inputs)}"
        )
    if len(observer.outputs) != 4:
        raise EncodingError(
            f"observer needs exactly 4 outputs for its two action bits, got {len(observer.outputs)}"
        )
    if block_width + 2 > width:
        raise DefinitionError(
            f"block of width {block_width} does not fit a lattice of width {width}"
        )
    if not 0 <= block_start or block_start + block_width > width:
        raise DefinitionError("block must lie inside the lattice without wrapping")
    return EmbeddedSystem(
        rule=rule,
        lattice=lattice,
        block_start=block_start,
        block_width=block_width,
        observer=observer,
    )


def run_embedded(system: EmbeddedSystem, steps: int) -> tuple[tuple[Bits, ...], Trace]:
    """Run the embedded loop, returning the spacetime diagram and the trace.

    The diagram has ``steps`` + 1 rows including the initial lattice.  Each
    trace record holds the sensed frontier pair, the state the block holds
    after the step (action overwrites included), the emitted action pair,
    and the full new lattice row.
    """
    if steps < 0:
        raise DefinitionError("steps must be non-negative")
    obs = system.observer
    rule = system.rule
    w = len(system.lattice)
    k = system.block_width
    start = system.block_start

    rows = [system.lattice]
    records = []
    for t in range(steps):
        pre = rows[-1]
        j = 2 * pre[(start - 1) % w] + pre[(start + k) % w]
        code = obs.f[_code_of(pre[start:start + k])][j]
        action = obs.g[code]

        nxt = [
            rule.table[(pre[i - 1], pre[i], pre[(i + 1) % w])] for i in range(w)
        ]
        nxt[start:start + k] = _bits_of(code, k)
        nxt[start], nxt[start + k - 1] = _bits_of(action, 2)

        row = tuple(nxt)
        rows.append(row)
        held = obs.states[_code_of(row[start:start + k])]
        records.append(TraceRecord(t, obs.inputs[j], held, obs.outputs[action], row))
    return tuple(rows), Trace(tuple(records))


def transparent_observer(rule: CARule, block_width: int) -> Observer:
    """The observer whose embedding reproduces the bare rule exactly.

    Built mechanically from the rule table: the transition updates the
    block bits the way the rule would, given the two sensed frontier bits
    as edge neighbors, and the action repeats the new boundary bits so the
    overwrite changes nothing.
    """
    if block_width < 1:
        raise DefinitionError("block width must be at least 1")
    states = tuple(product((0, 1), repeat=block_width))
    inputs = tuple(product((0, 1), repeat=2))
    outputs = tuple(product((0, 1), repeat=2))

    transition = {}
    for bits in states:
        for l, r in inputs:
            padded = (l,) + bits + (r,)
            nxt = tuple(
                rule.table[(padded[i], padded[i + 1], padded[i + 2])]
                for i in range(block_width)
            )
            transition[(bits, (l, r))] = nxt
    output_map = {bits: (bits[0], bits[-1]) for bits in states}
    return Observer(
        states=states,
        inputs=inputs,
        outputs=outputs,
        transition=transition,
        output_map=output_map,
        boundary=f"transparent block of {block_width} cells",
    )


def damping_observer(rule: CARule, block_width: int) -> Observer:
    """A transparent block whose actions pin its boundary cells to zero."""
    base = transparent_observer(rule, block_width)
    return Observer(
        states=base.states,
        inputs=base.inputs,
        outputs=base.outputs,
        transition=base.transition,
        output_map={bits: (0, 0) for bits in base.states},
        boundary=f"damping block of {block_width} cells",
    )


def render_text(rows) -> str:
    """Rows as text, one line per row, '.' for 0 and '#' for 1."""
    return "\n".join("".join("#" if b else "." for b in row) for row in rows)


def pbm_bytes(rows) -> bytes:
    """Rows as a binary PBM (P4) image, 1 rendered black."""
    rows = tuple(tuple(r) for r in rows)
    if not rows:
        raise DefinitionError("cannot render an empty diagram")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DefinitionError("all diagram rows must have equal width")
    header = f"P4\n{width} {len(rows)}\n".encode("ascii")
    body = bytearray()
    for row in rows:
        byte = 0
        filled = 0
        for bit in row:
            byte = (byte << 1) | (1 if bit else 0)
            filled += 1
            if filled == 8:
                body.append(byte)
                byte, filled = 0, 0
        if filled:
            body.append(byte << (8 - filled))
    return header + bytes(body)
