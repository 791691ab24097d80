"""Elementary cellular automata with an embedded observer block.

All 256 elementary rules are supported; a rule number's 8-bit binary
expansion is its next-cell table, read so that neighborhood (a, b, c)
selects bit 4a + 2b + c.  Lattices are cyclic.

Inside, a row of w cells is packed into one int with cell i in bit
w - 1 - i (cell 0 most significant, so the binary digits read like the
cells), and one kernel, ``_step``, updates every row, bare or embedded:
it XORs the neighbor-row products named by the rule's algebraic normal
form, whose monomials each call works out once.  An embedded run's loop
carries only ints (the row, the block's state, each step's reading and
new state) and builds its rows and records after the loop.  Diagrams are
tuples of 0/1 int tuples that keep the packed rows, for ``pbm_bytes``, and
their binary digits, one byte per cell, for ``render_text``.

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
environment through the standard coupling.  One routine, ``_block``,
builds both the transparent and the damping block, from int rows.
"""

from itertools import product
from types import MappingProxyType

from .core import _DIGITS, Observer, Trace, TraceRecord, _integer, _items, _of_type, _Record, _set
from .errors import DefinitionError, EncodingError, _shown

Bits = tuple[int, ...]

_CELLS = bytes.maketrans(b"01", b"\0\1")
_GLYPHS = bytes.maketrans(b"01\0\1", b".#.#")  # binary digits or 0/1 bytes to text
_BIT = {abc: i for i, abc in enumerate(product((0, 1), repeat=3))}  # (a, b, c) is bit 4a + 2b + c
_SUBSETS = (0x01, 0x03, 0x05, 0x0F, 0x11, 0x33, 0x55, 0xFF)  # bit s of entry m: s is a subset of m


class CARule(_Record):
    """An elementary rule, identified by its number in 0..255."""

    number: int

    def __post_init__(self) -> None:
        try:  # stored as a plain int; range(256)[n] is n up to 255 and an IndexError above
            self._assign(number=range(256)[_integer(self.number, "rule number", 0)])
        except (DefinitionError, IndexError):
            raise DefinitionError(f"rule number must be in 0..255, got {_shown(self.number)}") from None

    @property
    def table(self) -> MappingProxyType:
        """The neighborhood table, a read-only view derived from ``number``."""
        return MappingProxyType({abc: (self.number >> i) & 1 for abc, i in _BIT.items()})

    def __call__(self, left: int, center: int, right: int) -> int:
        try:
            return (self.number >> _BIT[(left, center, right)]) & 1
        except (KeyError, TypeError):
            raise DefinitionError(f"a neighborhood must be three bits, got {_shown((left, center, right))}") from None


def rule_table(number: int) -> CARule:
    """The rule whose table is the number's binary expansion."""
    return CARule(number)


def _terms(rule) -> list[int]:
    """The monomials m (left 4, center 2, right 1) of the rule's algebraic normal form."""
    number = _of_type(rule, CARule, "rule must be a CARule (see rule_table)").number
    return [m for m, subsets in enumerate(_SUBSETS) if (number & subsets).bit_count() & 1]


def _step(row: int, width: int, terms: list[int]) -> int:
    """One update of a packed cyclic row: the XOR of the rule's monomials over the neighbor planes."""
    mask = (1 << width) - 1
    left = (row >> 1) | ((row & 1) << (width - 1))
    right = ((row << 1) & mask) | (row >> (width - 1))
    products = (mask, right, row, row & right, left, left & right, left & row, left & row & right)
    out = 0
    for m in terms:
        out ^= products[m]
    return out


def _pack(bits: bytes) -> int:
    """The packed row of ``bits``, one 0 or 1 byte per cell."""
    return int(bits.translate(_DIGITS) or b"0", 2)


class _Diagram(tuple):
    """Rows of bits, plus the same rows packed (``_packed``, for P4) and as lines of binary digits
    (``_text``, for text), which cost one byte per cell.

    Equality, hash and repr are the tuple's; slices and sums are plain tuples.  As a ``_Record``
    does, it refuses to set or delete any attribute.
    """

    __setattr__ = __delattr__ = _Record.__setattr__


def _diagram(packed: list, width: int) -> tuple[Bits, ...]:
    """The packed rows as tuples of int bits, unpacked from their digits, which are formatted once and kept."""
    text = "\n".join(map(f"{{:0{width}b}}".format, packed)).encode()
    diagram = _Diagram(zip(*[iter(text.translate(_CELLS, b"\n"))] * width))
    _set(diagram, "_packed", tuple(packed))
    _set(diagram, "_text", text)
    return diagram


def _check_cells(cells) -> bytes:
    try:
        cells = tuple(cells)
    except TypeError:
        raise DefinitionError(f"lattice must be an iterable of bits, got {_shown(cells)}") from None
    if len(cells) < 3:
        raise DefinitionError("lattice width must be at least 3")
    if cells.count(0) + cells.count(1) != len(cells):
        raise DefinitionError("lattice cells must be bits")
    return bytes(map(bool, cells))


def ca_step(cells, rule: CARule) -> Bits:
    """One synchronous update of a cyclic lattice."""
    return ca_evolution(cells, rule, 1)[1]


def ca_evolution(cells, rule: CARule, steps: int) -> tuple[Bits, ...]:
    """The initial row plus ``steps`` updates."""
    terms, steps = _terms(rule), _integer(steps, "steps", 0)
    first = _check_cells(cells)
    width, row = len(first), _pack(first)
    packed = [row]
    for _ in range(steps):
        row = _step(row, width, terms)
        packed.append(row)
    return _diagram(packed, width)


class EmbeddedSystem(_Record):
    """A rule, a lattice, and the observer owning the block of its cells at ``block_start``.

    The observer's sets are matched to the block positionally: state number i encodes the
    block bit pattern with value i, inputs and outputs number the four (left bit, right bit)
    pairs as 2*left + right.  So the block is as wide as the state code; ``block_width``, that
    width, is derived, not a field.  The block must lie inside the lattice without wrapping
    and leave at least two cells of environment on it.
    """

    rule: CARule
    lattice: Bits
    block_start: int
    observer: Observer

    def __post_init__(self) -> None:
        start = _integer(self.block_start, "block start")
        lattice = tuple(_check_cells(self.lattice))
        width = len(lattice)
        n_states = len(self.observer.states)
        if n_states < 2 or n_states & (n_states - 1):
            raise EncodingError(
                f"observer needs a power-of-two state count to encode a block, got {n_states}"
            )
        k = n_states.bit_length() - 1
        for name, role in (("inputs", "the two frontier bits"), ("outputs", "its two action bits")):
            if (size := len(getattr(self.observer, name))) != 4:
                raise EncodingError(f"observer needs exactly 4 {name} for {role}, got {size}")
        if k + 2 > width:
            raise DefinitionError(f"block of width {k} does not fit a lattice of width {width}")
        if not 0 <= start or start + k > width:
            raise DefinitionError("block must lie inside the lattice without wrapping")
        self._assign(lattice=lattice, block_start=start, block_width=k)


def embed(rule: CARule, lattice, block_start: int, observer: Observer) -> EmbeddedSystem:
    """Designate a block of lattice cells as an embedded observer: ``EmbeddedSystem(rule, lattice,
    block_start, observer)``, which states the matching and the checks."""
    return EmbeddedSystem(rule, lattice, block_start, observer)


def run_embedded(system: EmbeddedSystem, steps: int) -> tuple[tuple[Bits, ...], Trace]:
    """Run the embedded loop, returning the spacetime diagram and the trace.

    The diagram has ``steps`` + 1 rows including the initial lattice.  Each
    trace record holds the sensed frontier pair, the state the block holds
    after the step (action overwrites included), the emitted action pair,
    and the full new lattice row.
    """
    steps = _integer(steps, "steps", 0)
    system = _of_type(system, EmbeddedSystem, "system must be an EmbeddedSystem (see embed)")
    obs, first, k = system.observer, system.lattice, system.block_width
    w, terms, f, g = len(first), _terms(system.rule), obs.f, obs.g
    low = w - system.block_start - k  # bit of the block's rightmost cell
    left, right, keep = (low + k) % w, (low - 1) % w, ~(((1 << k) - 1) << low)
    top = 1 << (k - 1)  # the block's leftmost cell in a state code
    # the block a new state leaves: its pattern, then the left and the right action bit
    held = [((code & ~top | top * (z >> 1)) & ~1) | (z & 1) for code, z in enumerate(g)]

    row = _pack(bytes(first))
    state, packed, moves = (row >> low) & (2 * top - 1), [row], []
    for _ in range(steps):
        j = 2 * ((row >> left) & 1) + ((row >> right) & 1)
        code = f[state][j]
        state = held[code]
        row = (_step(row, w, terms) & keep) | (state << low)
        packed.append(row)
        moves.append((j, code))
    rows = _diagram(packed, w)
    y, x, z = obs.inputs, obs.states, obs.outputs
    return rows, Trace([TraceRecord(t, y[j], x[held[code]], z[g[code]], rows[t + 1])
                        for t, (j, code) in enumerate(moves)])


def _block(rule: CARule, block_width: int, act, boundary: str) -> Observer:
    """The block whose bits step as ``rule`` would between the two sensed bits and which
    emits ``act(bits)`` from its new bits; ``boundary`` is formatted with the width read."""
    terms, block_width = _terms(rule), _integer(block_width, "block width", 1)
    states = tuple(product((0, 1), repeat=block_width))
    pairs = tuple(product((0, 1), repeat=2))  # pair (l, r) has index 2l + r
    # state i between sensed bits l and r is the padded code 2 * (l * n + i) + r
    n = len(states)
    f = tuple([tuple([(_step(2 * (l * n + i) + r, block_width + 2, terms) >> 1) % n for l, r in pairs])
               for i in range(n)])
    return Observer._of_rows(states, pairs, pairs, f, tuple([pairs.index(act(bits)) for bits in states]),
                             boundary.format(block_width))


def transparent_observer(rule: CARule, block_width: int) -> Observer:
    """The observer whose embedding reproduces the bare rule exactly.

    Built mechanically from the rule table: the transition updates the
    block bits the way the rule would, given the two sensed frontier bits
    as edge neighbors, and the action repeats the new boundary bits so the
    overwrite changes nothing.
    """
    return _block(rule, block_width, lambda bits: (bits[0], bits[-1]), "transparent block of {} cells")


def damping_observer(rule: CARule, block_width: int) -> Observer:
    """A transparent block whose actions pin its boundary cells to zero."""
    return _block(rule, block_width, lambda bits: (0, 0), "damping block of {} cells")


def render_text(rows) -> str:
    """Rows as text, one line per row, '.' for 0 and '#' for 1."""
    if isinstance(rows, _Diagram):
        return rows._text.translate(_GLYPHS).decode("ascii")
    rows = [_items(row, "a diagram row") for row in _items(rows, "rows")]
    return "\n".join(bytes(map(bool, row)).translate(_GLYPHS).decode("ascii") for row in rows)


def pbm_bytes(rows) -> bytes:
    """Rows as a binary PBM (P4) image, 1 rendered black, rows padded to whole bytes."""
    if isinstance(rows, _Diagram):
        width, packed = len(rows[0]), rows._packed
    else:
        rows = tuple(_items(r, "a diagram row") for r in _items(rows, "rows"))
        if not rows:
            raise DefinitionError("cannot render an empty diagram")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DefinitionError("all diagram rows must have equal width")
        packed = (_pack(bytes(map(bool, row))) for row in rows)
    size = (width + 7) // 8
    pad = 8 * size - width
    header = f"P4\n{width} {len(rows)}\n".encode("ascii")
    return header + b"".join((r << pad).to_bytes(size, "big") for r in packed)
