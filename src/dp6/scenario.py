"""Scenario files: JSON descriptions of towers, surfaces, points, and commands.

Polynomials are written in infix notation over the declared variables, with
`w` reserved for the primitive cube root of unity and `r` for the radical of
the extension in scope.
"""

from __future__ import annotations

import json
import os
from math import comb

from ._ratfunc import QOmega, unit_from_str
from ._record import Record, field
from .fieldtower import (
    CertificateError,
    ExtensionDescriptor,
    FactRegistry,
    GaloisTower,
    IS_NORM,
    NOT_NORM,
    UnsupportedCompositeError,
    VarAutomorphism,
    apply,
    norm_class,
)
from .points import ClosedPointSpec, composite_for
from .surface import make_surface
from . import hexagon


class ScenarioError(ValueError):
    pass


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------

#: the deepest nesting of parentheses and unary minus signs an expression
#: may have; the parser recurses once per level
_MAX_NESTING = 100
#: the most terms, and the highest degree, a power base^k may be predicted
#: to have (`_check_power_size`); a larger power is refused unexpanded
_MAX_POWER_TERMS = 2000
_MAX_POWER_DEGREE = 1000


class _Tokens:
    def __init__(self, text):
        self.toks = self._lex(text)
        self.pos = 0
        self.depth = 0

    @staticmethod
    def _lex(text):
        out = []
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                out.append(("int", int(text[i:j])))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(("name", text[i:j]))
                i = j
            elif text.startswith("**", i):
                out.append(("op", "^"))
                i += 2
            elif c in "+-*/^()":
                out.append(("op", c))
                i += 1
            else:
                raise ScenarioError(f"unexpected character {c!r} in expression")
        return out

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok


def parse_element(text, tower: GaloisTower, composite=None):
    """Parse an infix expression into a field (or radical-field) element.

    Grammar, loosest first: sums, products and quotients, unary minus, and
    powers with an integer exponent, so -x^2 is -(x^2).
    """
    toks = _Tokens(str(text))
    value = _parse_sum(toks, tower, composite)
    if toks.peek() != (None, None):
        raise ScenarioError(f"trailing input in expression {text!r}")
    return value


def _parse_sum(toks, tower, comp):
    value = _parse_product(toks, tower, comp)
    while toks.peek() == ("op", "+") or toks.peek() == ("op", "-"):
        _, op = toks.next()
        rhs = _parse_product(toks, tower, comp)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_product(toks, tower, comp):
    value = _parse_unary(toks, tower, comp)
    while toks.peek() in (("op", "*"), ("op", "/")):
        _, op = toks.next()
        rhs = _parse_unary(toks, tower, comp)
        value = value * rhs if op == "*" else value / rhs
    return value


def _nested(toks, parse, *args):
    """parse(toks, *args) one nesting level deeper, refused past _MAX_NESTING."""
    if toks.depth == _MAX_NESTING:
        raise ScenarioError(f"expression nested deeper than {_MAX_NESTING} levels")
    toks.depth += 1
    value = parse(toks, *args)
    toks.depth -= 1
    return value


def _parse_unary(toks, tower, comp):
    if toks.peek() == ("op", "-"):
        toks.next()
        return -_nested(toks, _parse_unary, tower, comp)
    return _parse_power(toks, tower, comp)


def _parse_power(toks, tower, comp):
    base = _parse_atom(toks, tower, comp)
    if toks.peek() == ("op", "^"):
        toks.next()
        sign = 1
        if toks.peek() == ("op", "-"):
            toks.next()
            sign = -1
        kind, val = toks.next()
        if kind != "int":
            raise ScenarioError("exponent must be an integer")
        _check_power_size(base, val)
        return base ** (sign * val)
    return base


def _check_power_size(base, k):
    """Refuse base^k (or base^-k) when its predicted size is over budget.

    A power p^k of a polynomial p with t terms and total degree d in v
    variables has degree k*d and at most min(comb(t + k - 1, k),
    comb(v + k*d, v)) terms: the products of k of p's terms, and the
    monomials of degree up to k*d.  A fraction is predicted by its numerator
    and its denominator.  A radical element is predicted as one polynomial
    holding all its digits' terms, with r as one more variable.  A constant
    counts as degree 1, as its digits grow with k as a degree does.
    """
    if k < 2:
        return
    if hasattr(base, "digits"):
        shapes = [p.shape() for d in base.digits for p in (d.num, d.den)]
        shapes = [(sum(t for t, _, _ in shapes), 1 + max(d for _, d, _ in shapes),
                   1 + max(v for _, _, v in shapes))]
    else:
        shapes = [base.num.shape(), base.den.shape()]
    for terms, degree, nvars in shapes:
        if k * max(degree, 1) > _MAX_POWER_DEGREE:
            raise ScenarioError(f"power too large: degree {k * max(degree, 1)} "
                                f"is over {_MAX_POWER_DEGREE}")
        size = min(comb(terms + k - 1, k), comb(nvars + k * degree, nvars))
        if size > _MAX_POWER_TERMS:
            raise ScenarioError(f"power too large: up to {size} terms, "
                                f"over {_MAX_POWER_TERMS}")


def _parse_atom(toks, tower, comp):
    kind, val = toks.next()
    if kind == "op" and val == "(":
        inner = _nested(toks, _parse_sum, tower, comp)
        if toks.next() != ("op", ")"):
            raise ScenarioError("missing closing parenthesis")
        return inner
    if kind == "int":
        return tower.const(QOmega(val))
    if kind == "name":
        if val == "w":
            return tower.const(QOmega.omega())
        if val == "r":
            if comp is None:
                raise ScenarioError("`r` used outside a radical extension")
            return comp.r()
        if val in tower.variables:
            return tower.var(val)
        raise ScenarioError(f"unknown symbol {val!r}")
    raise ScenarioError(f"unexpected token {val!r}")


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------

class Scenario(Record):
    name: str
    towers: dict
    extensions: dict
    surfaces: dict
    points: dict
    registry: FactRegistry
    commands: list
    raw: dict = field(default_factory=dict)


def section(value, kind, what):
    """value if it is a JSON object (kind dict) or list; null reads as empty."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ScenarioError(
            f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return value


def integer(value):
    """int(value), refusing a JSON boolean or a number with a fraction part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def _word(value, what):
    """value if it is a JSON string (a name or a generator word like "hf")."""
    if not isinstance(value, str):
        raise ScenarioError(f"{what} must be a string, got {value!r}")
    return value


def _named(table, value, what):
    """The entry of `table` named by `value`, which must be a JSON string."""
    name = _word(value, what)
    if name not in table:
        raise ScenarioError(f"{what}: unknown name {name!r}")
    return table[name]


def _required(node, key, what):
    """node[key] for a required field of the entry named by `what`."""
    if key not in node:
        raise ScenarioError(f"{what}: missing field {key!r}")
    return node[key]


def _element(node, key, where, tower, comp=None):
    """The required field node[key] of the entry `where`, parsed.

    An expression that does not parse, or divides by zero, is an error in
    that field.
    """
    text = _required(node, key, where)
    try:
        return parse_element(text, tower, comp)
    except ZeroDivisionError:
        raise ScenarioError(
            f"{where}: {key}: division by zero in {text!r}") from None
    except ScenarioError as e:
        raise ScenarioError(f"{where}: {key}: {e}") from None


def _entries(raw, key):
    """The (name, node) pairs of a scenario section, sorted by name."""
    nodes = section(raw.get(key), dict, key)
    return [(name, section(nodes[name], dict, f"{key} entry {name!r}"))
            for name in sorted(nodes)]


def _build_tower(name, node):
    where = f"tower {name}"
    variables = section(_required(node, "variables", where), list,
                        f"{where}: variables")
    if not all(isinstance(v, str) for v in variables):
        raise ScenarioError(f"{where}: variables must be names")

    def var(v):
        if v not in variables:
            raise ScenarioError(f"{where}: unknown variable {v!r}")
        return variables.index(v)

    gens = {}
    gens_node = section(_required(node, "generators", where), dict,
                        f"{where}: generators")
    for gname, desc in gens_node.items():
        gen = f"{where}: generator {gname}"
        section(desc, dict, gen)
        perm = list(range(len(variables)))
        for a, b in section(desc.get("perm"), dict, f"{gen}: perm").items():
            perm[var(a)] = var(b)
        scal = [QOmega.one()] * len(variables)
        for a, u in section(desc.get("scale"), dict, f"{gen}: scale").items():
            try:
                scal[var(a)] = unit_from_str(str(u))
            except ValueError as e:
                raise ScenarioError(f"{where}: {e}") from None
        gens[gname] = VarAutomorphism(perm, scal)
    embedding = None
    if "embedding" in node:
        named = {"rot3": hexagon.ROT3, "central": hexagon.CENTRAL,
                 "reflect-f": hexagon.REFLECT_F, "reflect-s": hexagon.REFLECT_S}
        emb = section(node["embedding"], dict, f"{where}: embedding")
        embedding = {g: _named(named, v, f"{where}: embedding of {g}")
                     for g, v in emb.items()}
    return GaloisTower(variables, gens, embedding, name=name)


def _build_extension(name, node, towers):
    where = f"extension {name}"
    tower = _named(towers, _required(node, "tower", where), f"{where}: tower")
    kind = _word(_required(node, "kind", where), f"{where}: kind")
    if kind not in ExtensionDescriptor.KINDS:
        raise ScenarioError(f"{where}: unknown kind {kind!r}")
    if kind == "subfield":
        words = section(_required(node, "fixing", where), list,
                        f"{where}: fixing")
        fixing = tower.subgroup([_word(w, f"{where}: fixing entry")
                                 for w in words])
        return ExtensionDescriptor("subfield", tower, fixing=fixing, name=name)
    radicand = _element(node, "radicand", where, tower)
    return ExtensionDescriptor(kind, tower, radicand=radicand, name=name)


def _build_point(name, node, scenario):
    where = f"point {name}"
    spec = _named(scenario.surfaces, _required(node, "surface", where),
                  f"{where}: surface")
    degree = _required(node, "degree", where)
    try:
        degree = integer(degree)
    except (TypeError, ValueError):
        raise ScenarioError(
            f"{where}: degree must be an integer, got {degree!r}") from None
    if degree == 4:
        gp = node.get("general_position", False)
        if not isinstance(gp, bool):
            raise ScenarioError(
                f"{where}: general_position must be true or false, got {gp!r}")
        return ClosedPointSpec(4, None, None, None, name=name,
                               general_position_declared=gp, surface=spec)
    ext = _named(scenario.extensions, _required(node, "extension", where),
                 f"{where}: extension")
    if ext.tower is not spec.tower:
        raise ScenarioError(
            f"{where}: extension {ext.name} is over tower {ext.tower.name}, but "
            f"surface {spec.name} is over tower {spec.tower.name}")
    try:
        cg = composite_for(spec.tower, ext)
    except UnsupportedCompositeError as e:
        raise ScenarioError(f"{where}: extension {ext.name}: {e}") from None
    comp = cg.comp
    lam1 = _element(node, "lambda1", where, spec.tower, comp)
    if "lambda2" in node:
        lam2 = _element(node, "lambda2", where, spec.tower, comp)
    else:
        rule = node.get("lambda2_rule", "g-orbit")
        gel = cg.generators["g"]
        if rule == "g-orbit":
            lam2 = lam1 * apply(gel, lam1)
        elif rule == "f-form":
            if lam1.is_zero():
                raise ScenarioError(
                    f"{where}: lambda2_rule: f-form divides by lambda1 = 0")
            if "f" not in cg.generators:
                raise ScenarioError(
                    f"{where}: lambda2_rule: f-form needs an f generator")
            lam2 = apply(cg.generators["f"], lam1 ** -1) * spec.xi.inv()
        else:
            raise ScenarioError(
                f"{where}: lambda2_rule: unknown rule {rule!r}")
    return ClosedPointSpec(degree, ext, lam1, lam2, name=name, surface=spec)


def _commands(node):
    if not isinstance(node, list) or not all(isinstance(c, list) for c in node):
        raise ScenarioError("commands must be a list of lists")
    return list(node)


def load_scenario(path_or_dict):
    raw = path_or_dict
    if isinstance(raw, (str, os.PathLike)):
        with open(raw, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    section(raw, dict, "a scenario")
    registry = FactRegistry()
    towers = {}
    for name, node in _entries(raw, "towers"):
        towers[name] = _build_tower(name, node)
    extensions = {}
    scen = Scenario(
        name=_word(raw.get("name", "scenario"), "scenario name"),
        towers=towers,
        extensions=extensions,
        surfaces={},
        points={},
        registry=registry,
        commands=_commands(raw.get("commands", [])),
        raw=raw,
    )
    for name, node in _entries(raw, "extensions"):
        extensions[name] = _build_extension(name, node, towers)
    for fact in section(raw.get("facts"), list, "facts"):
        section(fact, dict, "a fact")
        tower = _named(towers, _required(fact, "tower", "fact"), "fact tower")
        elem = _element(fact, "element", "fact", tower)
        gen = tower.element_named(
            _word(_required(fact, "generator", "fact"), "fact generator"))
        where = f"fact {fact['element']} under {fact['generator']}"
        if "certificate" in fact:
            cert = _element(fact, "certificate", "fact", tower)
            try:
                norm_class(elem, gen, cert=cert, registry=registry)
            except CertificateError as e:
                raise ScenarioError(f"{where}: {e}") from None
        else:
            verdict = _required(fact, "verdict", "fact")
            if verdict not in (IS_NORM, NOT_NORM):
                raise ScenarioError(
                    f"{where}: verdict must be {IS_NORM} or {NOT_NORM}, got "
                    f"{verdict!r}")
            note = _word(fact.get("note", ""), f"{where}: note")
            registry.assume(elem, gen, verdict, note=note)
    for name, node in _entries(raw, "surfaces"):
        where = f"surface {name}"
        tower = _named(towers, _required(node, "tower", where), f"{where}: tower")
        xi = _element(node, "xi", where, tower)
        rho = _element(node, "rho", where, tower) if node.get("rho") is not None \
            else None
        scen.surfaces[name] = make_surface(
            _required(node, "gtype", where), tower, xi, rho, registry, name=name
        )
    for name, node in _entries(raw, "points"):
        scen.points[name] = _build_point(name, node, scen)
    return scen
