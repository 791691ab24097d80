"""Finite observers, environments, and the closed feedback loop between them.

An ``Observer`` is a finite machine that senses an input, updates its
internal state, and emits an action from the new state.  An ``Environment``
is the dual machine: it consumes the observer's action and offers the next
sensor reading.  ``CoupledSystem`` wires the two into the closed loop

    reading -> state update -> action -> environment update -> next reading

and ``CoupledSystem.run`` records that loop as a ``Trace``.

All values are immutable after construction, so shared instances may be
used freely from multiple threads, hashed, and pickled: every value type
in the package is a ``_Record``, which stores a mapping field as a
read-only ``types.MappingProxyType`` view of a private copy.  ``Observer``
and ``Environment`` check their sets and label transition in one routine,
``_machine``: ``_index`` checks and indexes each set in one pass, and
``check_total`` the transition, cut into int rows ``f``.  A machine
derived from checked ones (a stack, a quotient, a CA block) enters through
``Observer._of_rows``, from its int rows, unchecked.  The loop runs on
``f`` and ``Observer.g`` alone, joined by two index maps the coupled
system derives once; labels are looked up only for what callers get back.
"""

import operator
from collections.abc import Collection, Hashable, Iterable, Iterator, Mapping
from itertools import islice, pairwise, repeat
from types import MappingProxyType, UnionType

from .errors import DefinitionError, IdentifierError, IncompatibleAlphabetsError, _shown

Ident = Hashable
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # 0 and 1 bytes to binary digits, to pack bits into an int


def _of_type(value, cls: type, claim: str):
    """``value``, if it is a ``cls``; otherwise a DefinitionError stating ``claim``."""
    if not isinstance(value, cls):
        raise DefinitionError(f"{claim}, got {_shown(value)}")
    return value


def _integer(value, what: str, least: int | None = None) -> int:
    """``value`` as an int, which must be at least ``least`` when that is given."""
    try:
        number = operator.index(value)
    except TypeError:
        raise DefinitionError(f"{what} must be an integer, got {_shown(value)}") from None
    if least is not None and number < least:
        raise DefinitionError(f"{what} must be {f'at least {least}' if least else 'non-negative'}")
    return number


def _items(value, what: str) -> tuple:
    """The items of ``value``; a DefinitionError when it is not iterable."""
    try:
        items = iter(value)
    except TypeError:
        raise DefinitionError(f"{what} must be iterable, got {_shown(value)}") from None
    return tuple(items)


def _locate(index: Mapping, label, what: str):
    """``index[label]``; an IdentifierError when ``label`` is unknown or unhashable."""
    try:
        return index[label]
    except (KeyError, TypeError):
        raise IdentifierError(f"unknown {what} {_shown(label)}") from None


def check_total(label: str, mapping: Mapping, domain: Collection,
                codomain: Iterable | None = None, error: type[Exception] = DefinitionError,
                incomplete: type[Exception] | None = None) -> Mapping:
    """Return ``mapping``, uncopied, once it is checked to be a total map.

    The checks run in a fixed order: keys outside ``domain``, then values
    outside ``codomain`` (skipped when it is None), both raised as
    ``error``, then keys of ``domain`` with no entry, raised as
    ``incomplete`` (``error`` when not given).
    """
    missing = [k for k in domain if k not in mapping]
    if len(mapping) + len(missing) != len(domain):
        stray = set(mapping).difference(domain)
        raise error(f"{label} has entries outside its domain: {sorted(map(_shown, stray))}")
    if codomain is not None:
        allowed = set(codomain)
        try:
            within = allowed.issuperset(mapping.values())
        except TypeError:  # an unhashable value, which no declared target can be
            within = False
        if not within:  # find the first stray value, testing each under try for the same reason
            for k, v in mapping.items():
                try:
                    if v in allowed:
                        continue
                except TypeError:
                    pass
                raise error(f"{label}[{_shown(k)}] = {_shown(v)} is not a declared target")
    if missing:
        raise (incomplete or error)(f"{label} is not total, missing {_shown(missing[0])}")
    return mapping


def _index(label: str, items) -> dict[Ident, int]:
    """The position of each of ``items``, once they are checked non-empty, hashable and duplicate-free."""
    out = _items(items, label)
    if not out:
        raise DefinitionError(f"{label} must not be empty")
    try:
        index = {item: i for i, item in enumerate(out)}
    except TypeError:
        raise DefinitionError(f"{label} must hold hashable identifiers, got {_shown(out)}") from None
    if len(index) != len(out):
        raise DefinitionError(f"duplicate identifiers in {label}: {_shown(out)}")
    return index


def _machine(label: str, transition: Mapping, *sets: tuple[str, Iterable]) -> tuple[list, tuple]:
    """The index of each of ``sets`` and the int rows of ``transition``, called ``label``, once all pass.

    ``sets`` are (name, items) pairs, indexed by ``_index`` in turn: the states, the symbols
    read, then any other.  Row i holds state i's successors' indices.
    """
    indexes = [_index(name, items) for name, items in sets]
    states, symbols = indexes[:2]
    keys = [(x, y) for x in states for y in symbols]
    table = check_total(label, transition, keys, states)
    return indexes, tuple(zip(*[iter([states[table[k]] for k in keys])] * len(symbols)))


_set = object.__setattr__


class _Record:
    """An immutable value whose fields are its class's annotated attributes, in order.

    A field's default is its class attribute.  The one ``__init__`` of every
    record binds fields by position or keyword and stores each as its evaluated
    annotation says, an alias such as ``ca.Bits`` too: ``Mapping…`` as a
    read-only ``MappingProxyType`` over a private dict copy, ``tuple…`` as a
    tuple, a record type ``R`` only as an ``R``, ``tuple[R, ...]`` as ``R``s
    only, and ``None`` only under ``| None``; else a DefinitionError.  Then
    ``__post_init__``, if any, sets derived attributes with ``_assign``, which
    stores dicts as read-only views too.  ``==`` and ``hash`` use ``_compare``
    (the fields by default; a view hashes by its items), ``repr`` shows the
    fields, and pickling calls the constructor.
    """

    _fields: tuple[str, ...] = ()
    _frozen: tuple = ()  # (position, name, kind stored or None, None allowed, record type held or None)
    _stores = {Mapping: lambda value: MappingProxyType(dict(value)), tuple: tuple}  # by kind
    __post_init__ = None

    def __init_subclass__(cls) -> None:
        own = cls.__annotations__  # the class's own, evaluated
        for i, (name, note) in enumerate(own.items(), len(cls._fields)):
            member = note.__args__[0] if (optional := isinstance(note, UnionType)) else note  # X | None: X
            kind = getattr(member, "__origin__", member)  # tuple[int, ...]: tuple
            held = member.__args__[0] if getattr(member, "__args__", ())[1:] == (...,) else kind  # tuple[R, ...]: R
            held = held if type(held) is type and issubclass(held, _Record) else None
            if (kind := kind if kind in cls._stores else None) or held:
                cls._frozen += ((i, name, kind, optional, held),)
        cls._fields += tuple(own)
        names = getattr(cls, "_compare", cls._fields)
        key = operator.attrgetter(*names) if len(names) > 1 else lambda r: tuple(getattr(r, n) for n in names)
        cls._key = staticmethod(key)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one at a time: filling __dict__ makes CPython 3.11 read every attribute slowly
        for field, value in zip(fields, args):
            _set(self, field, value)
        for i, field, kind, optional, held in self._frozen:  # reset, then check, as annotated
            if (value := args[i]) is None and optional:
                continue
            try:
                _set(self, field, value := self._stores[kind](value) if kind else value)
            except (TypeError, ValueError):
                raise DefinitionError(f"{type(self).__qualname__}.{field} cannot be stored as a {kind.__name__}: "
                                      f"{_shown(value)}") from None
            if held and not all(map(isinstance, items := value if kind else (value,), repeat(held))):
                what = f"each {type(self).__qualname__}.{field} item" if kind else field
                for value in items:  # the first that is not a ``held`` is named
                    _of_type(value, held, f"{what} must be {'an' if held.__name__[0] in 'AEIOU' else 'a'} "
                                          f"{held.__name__}")
        if self.__post_init__:
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        name, fields = cls.__qualname__, cls._fields
        values = list(args)
        for field in fields[len(args):]:
            if field not in kwargs and not hasattr(cls, field):
                raise TypeError(f"{name}() missing argument {field!r}")
            values.append(kwargs.pop(field) if field in kwargs else getattr(cls, field))
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{name}() takes {', '.join(fields)}; got surplus, repeated or unknown arguments")
        return values

    def _assign(self, **values) -> None:  # for __post_init__, and builders that skip __init__
        for name, value in values.items():
            _set(self, name, MappingProxyType(value) if type(value) is dict else value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(tuple([frozenset(v.items()) if type(v) is MappingProxyType else v for v in self._key(self)]))

    def __reduce__(self):
        values = (getattr(self, name) for name in self._fields)
        return type(self), tuple([v.copy() if type(v) is MappingProxyType else v for v in values])


class Observer(_Record):
    """A finite sensing/acting machine.

    ``transition`` maps (state, input) to the next state and ``output_map``
    maps each state to the action it emits.  ``boundary`` is a free-form
    description of what counts as inside the machine; it carries no
    dynamics.  Identifier sets keep their construction order, and every
    algorithm in the package iterates in that order, so results are
    reproducible.  ``f``, ``g``, ``state_index`` and ``input_index`` are the
    same tables over indices in that order; they are derived, not fields,
    and equality compares ``f`` and ``g`` in place of the label tables.
    """

    states: tuple[Ident, ...]
    inputs: tuple[Ident, ...]
    outputs: tuple[Ident, ...]
    transition: Mapping
    output_map: Mapping
    boundary: str = ""
    _compare = ("states", "inputs", "outputs", "boundary", "f", "g")

    def __post_init__(self) -> None:
        (si, yi, zi), f = _machine("transition", self.transition, ("states", self.states),
                                   ("inputs", self.inputs), ("outputs", self.outputs))
        output_map = check_total("output_map", self.output_map, self.states, zi)
        _of_type(self.boundary, str, "boundary must be a string")
        self._assign(f=f, g=tuple([zi[output_map[x]] for x in self.states]), state_index=si, input_index=yi)

    @classmethod
    def _of_rows(cls, states: tuple, inputs: tuple, outputs: tuple, f: tuple, g: tuple, boundary: str) -> "Observer":
        """The observer with int rows ``f`` (tuples) and ``g``, unchecked: rows built right from checked ones."""
        obs = cls.__new__(cls)  # attributes in __init__'s order, label views state-major: the same value
        obs._assign(states=states, inputs=inputs, outputs=outputs,
                    transition={(x, y): states[t] for x, row in zip(states, f) for y, t in zip(inputs, row)},
                    output_map=dict(zip(states, [outputs[k] for k in g])), boundary=boundary, f=f, g=g,
                    state_index={x: i for i, x in enumerate(states)},
                    input_index={y: j for j, y in enumerate(inputs)})
        return obs

    def step(self, state: Ident, received: Ident) -> Ident:
        """Next internal state after sensing ``received`` in ``state``."""
        i = _locate(self.state_index, state, "state")
        return self.states[self.f[i][_locate(self.input_index, received, "input")]]

    def output(self, state: Ident) -> Ident:
        """Action emitted while in ``state``."""
        return _locate(self.output_map, state, "state")

    def respond(self, start: Ident, word: Iterable[Ident]) -> tuple[Ident, ...]:
        """Open-loop run: feed a word of inputs, collect the emitted actions."""
        state = start
        emitted = []
        for symbol in _items(word, "word"):
            state = self.step(state, symbol)
            emitted.append(self.output(state))
        return tuple(emitted)


class Environment(_Record):
    """The machine on the far side of an observer's boundary.

    ``transition`` maps (environment state, observer action) to the next
    environment state; ``observation`` maps each environment state to the
    reading it offers the observer.  ``f[i][j]`` is the index of the state
    that state i moves to on action j, ``readings[i]`` is the reading
    state i offers, and ``state_index`` and ``action_index`` index the states
    and the actions; like ``Observer``'s, they are derived, not fields.
    """

    states: tuple[Ident, ...]
    actions: tuple[Ident, ...]
    transition: Mapping
    observation: Mapping
    _compare = ("states", "actions", "f", "readings")

    def __post_init__(self) -> None:
        (si, ai), f = _machine("environment transition", self.transition, ("environment states", self.states),
                               ("actions", self.actions))
        observation = check_total("observation map", self.observation, self.states)
        readings = tuple([observation[s] for s in self.states])
        try:
            hash(readings)
        except TypeError:
            raise DefinitionError(f"observation map must hold hashable readings, got {_shown(readings)}") from None
        self._assign(f=f, readings=readings, state_index=si, action_index=ai)

    def observe(self, state: Ident) -> Ident:
        return _locate(self.observation, state, "environment state")

    def react(self, state: Ident, action: Ident) -> Ident:
        return _locate(self.transition, (state, action), "environment state or action")


class TraceRecord(_Record):
    """One loop iteration: reading y, new state x, action z, new env state s."""

    t: int
    y: Ident
    x: Ident
    z: Ident
    s: Ident


class Trace(_Record):
    """Time-indexed record of a closed-loop run."""

    steps: tuple[TraceRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.steps)

    def joint_states(self) -> tuple[tuple[Ident, Ident], ...]:
        """The (observer state, environment state) pair after each step."""
        return tuple((r.x, r.s) for r in self.steps)


JointState = tuple[Ident, Ident]


class CoupledSystem(_Record):
    """An observer wired to an environment in a closed loop.

    Construction rejects arguments that are not an ``Observer`` and an
    ``Environment``, then incompatible alphabets: every reading the
    environment can offer must be an observer input, and every observer
    action must be an environment action.  The loop then runs on the two
    machines' integer tables, joined by ``_sense`` (environment state index
    to the index of the observer input it offers) and ``_act`` (observer
    output index to environment action index).
    """

    observer: Observer
    environment: Environment

    def __post_init__(self) -> None:
        obs, env = self.observer, self.environment
        unknown = set(env.readings) - set(obs.inputs)
        if unknown:
            raise IncompatibleAlphabetsError("environment offers readings the observer cannot sense: "
                                             f"{sorted(map(_shown, unknown))}")
        stray = set(obs.outputs) - set(env.actions)
        if stray:
            raise IncompatibleAlphabetsError("observer actions the environment does not accept: "
                                             f"{sorted(map(_shown, stray))}")
        self._assign(_sense=tuple([obs.input_index[y] for y in env.readings]),
                     _act=tuple([env.action_index[z] for z in obs.outputs]))

    def _walk(self, joint: JointState) -> Iterator[tuple[int, int]]:
        """Index pairs (x, s) the loop visits from ``joint`` on; the first ``next`` checks ``joint``."""
        obs, env = self.observer, self.environment
        try:
            x, s = joint
            i, e = obs.state_index.get(x), env.state_index.get(s)
        except (TypeError, ValueError):
            raise IdentifierError(f"a joint is an (observer state, environment state) pair, "
                                  f"got {_shown(joint)}") from None
        if i is None:
            raise IdentifierError(f"unknown observer state {_shown(x)}")
        if e is None:
            raise IdentifierError(f"unknown environment state {_shown(s)}")
        f, g, react, sense, act = obs.f, obs.g, env.f, self._sense, self._act
        while True:
            yield i, e
            i = f[i][sense[e]]
            e = react[e][act[g[i]]]

    def step(self, joint: JointState, when: int = 0) -> tuple[JointState, TraceRecord]:
        """Advance the loop once.

        In order: the environment offers y, the observer updates to x', the
        new state emits z, and the environment reacts to z.
        """
        walk = self._walk(joint)
        (_, e), (i, e2) = next(walk), next(walk)
        obs, env = self.observer, self.environment
        x, s = obs.states[i], env.states[e2]
        return (x, s), TraceRecord(when, env.readings[e], x, obs.outputs[obs.g[i]], s)

    def run(self, joint: JointState, horizon: int) -> Trace:
        """Iterate the loop ``horizon`` times and record every step."""
        pairs = pairwise(islice(self._walk(joint), _integer(horizon, "horizon", 0) + 1))
        obs, env = self.observer, self.environment
        y, x, z, s, g = env.readings, obs.states, obs.outputs, env.states, obs.g
        return Trace(TraceRecord(t, y[e], x[i], z[g[i]], s[e2]) for t, ((_, e), (i, e2)) in enumerate(pairs))

    def reachable_joints(self, starts: Iterable[JointState]) -> tuple[JointState, ...]:
        """Joint states visited by the loop from each start, starts included."""
        seen: dict[tuple[int, int], None] = {}
        for start in _items(starts, "starts"):
            # each earlier walk ran to a cycle, so all a seen joint leads to is seen
            for joint in self._walk(start):
                if joint in seen:
                    break
                seen[joint] = None
        x, s = self.observer.states, self.environment.states
        return tuple([(x[i], s[e]) for i, e in seen])


class MinimalityReport(_Record):
    """Per-condition verdicts for the minimal-observer test."""

    has_inputs: bool
    has_outputs: bool
    nontrivial_dynamics: bool
    actions_can_change_environment: bool
    readings_track_environment: bool

    @property
    def feedback_closure(self) -> bool:
        return self.actions_can_change_environment and self.readings_track_environment

    @property
    def passed(self) -> bool:
        return all(self.conditions().values())

    def conditions(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in self._fields}


def validate_minimal(system: CoupledSystem, starts: Iterable[JointState]) -> MinimalityReport:
    """Check the minimality conditions of a coupled system.

    The cardinality conditions are checked on the observer alone.  Feedback
    closure is approximated by two one-step non-constancy checks over the
    environment states reachable from ``starts`` under the closed loop:
    some reachable environment state must react differently to at least two
    actions, and the observation map must not be constant on the reachable
    states.  The check is sound but not complete; a pass can still hide a
    loop whose actions never matter further downstream.
    """
    _of_type(system, CoupledSystem, "system must be a CoupledSystem")
    obs, env = system.observer, system.environment
    reached = {env.state_index[s] for _, s in system.reachable_joints(starts)}

    actions_matter = any(len(set(env.f[e])) > 1 for e in reached)
    readings_vary = len({env.readings[e] for e in reached}) > 1

    return MinimalityReport(
        has_inputs=len(obs.inputs) >= 1,
        has_outputs=len(obs.outputs) >= 1,
        nontrivial_dynamics=len(obs.states) > 1,
        actions_can_change_environment=actions_matter,
        readings_track_environment=readings_vary,
    )
