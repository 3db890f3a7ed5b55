"""Finite fragments of the model graph G_S and the quotient homomorphisms.

Vertices are canonical Severi-Brauer-data keys with representative surfaces;
edges are link equivalence classes with an inverse pairing and a sign chosen
once per pair at exploration time.  Words in the generating tours A/B/C/D
map to reduced words in the free-product target per the index-3 and index-2
quotient theorems.
"""

from __future__ import annotations

import itertools

from ._record import Record, field, replace
from .fieldtower import UNKNOWN, check_verdict
from .points import ClosedPointSpec
from .sarkisov import (
    DataSurface,
    LinkError,
    LinkRecord,
    as_data_surface,
    declared_point_handle,
    link,
    pair_of,
    point_handles,
    transport,
)
from .surface import SurfaceSpec, TwistedAutomorphism, is_automorphism


class GraphError(ValueError):
    pass


class Vertex(Record):
    key: tuple
    data: DataSurface
    name: str
    ref_edge: tuple | None = None  # pair id of the reference link from the base


class EdgeClass(Record):
    # chi's own edge id: the record with this id, chi and not chi^-1, is the
    # positive orientation of the edge
    pair_id: tuple
    records: dict                  # edge_id -> LinkRecord
    source_key: tuple
    target_key: tuple
    in_RE: bool = False
    self_loop: bool = False
    almost_involution: bool | None = None
    witnesses: tuple = ()


class BirGraph(Record):
    base_key: tuple
    vertices: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)
    handles: dict = field(default_factory=dict)   # vertex key -> [PointHandle]
    out: dict = field(default_factory=dict)       # (vertex key, root id) -> record
    unknown_merges: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def vertex(self, key):
        return self.vertices[key]

    def base(self):
        return self.vertices[self.base_key]

    def edge_of(self, rec: LinkRecord):
        return self.edges[pair_of(rec.edge_id)]

    def add_vertex(self, data: DataSurface):
        key = data.vertex_key()
        if key in self.vertices:
            return self.vertices[key], False
        merged = self._merge_candidate(data)
        if merged is not None:
            return merged, False
        v = Vertex(key=key, data=data, name=data.name)
        self.vertices[key] = v
        self.handles[key] = []
        return v, True

    def _merge_candidate(self, data):
        for v in self.vertices.values():
            verdict = same_vertex(v.data, data)
            if verdict is True:
                return v
            if verdict is None:
                self.unknown_merges.append((v.name, data.name))
        return None

    def add_edge(self, rec: LinkRecord, is_ref=False):
        pid = pair_of(rec.edge_id)
        edge = self.edges.get(pid)
        if edge is None:
            edge = EdgeClass(
                pair_id=pid,
                records={rec.edge_id: rec},
                source_key=rec.source.vertex_key(),
                target_key=rec.target.vertex_key(),
                in_RE=is_ref,
                self_loop=rec.is_self_link(),
            )
            self.edges[pid] = edge
        else:
            edge.records.setdefault(rec.edge_id, rec)
            edge.in_RE = edge.in_RE or is_ref
        return edge

    def reference_record(self, vertex_key):
        """The chosen link chi_v from the base to this vertex."""
        if vertex_key == self.base_key:
            raise GraphError("the base vertex has no reference link")
        v = self.vertices[vertex_key]
        if v.ref_edge is None:
            raise GraphError(f"no reference link materialized for {v.name}")
        edge = self.edges[v.ref_edge]
        rec = edge.records[edge.pair_id]
        if rec.source.vertex_key() != self.base_key:
            rec = rec.reversed()
        return rec

    def merge_edges(self, rec1: LinkRecord, rec2: LinkRecord, witness):
        """Declare two links equivalent (same edge class), with a witness."""
        e1 = self.edges.get(pair_of(rec1.edge_id))
        e2 = self.edges.get(pair_of(rec2.edge_id))
        if e1 is None or e2 is None:
            raise GraphError("merge of unexplored edges")
        if e1 is e2:
            return e1
        if (e1.source_key, e1.target_key) != (e2.source_key, e2.target_key) and \
                (e1.source_key, e1.target_key) != (e2.target_key, e2.source_key):
            raise GraphError("witnessed equivalence between incompatible links")
        e1.records.update(e2.records)
        e1.witnesses = e1.witnesses + (witness,)
        e1.in_RE = e1.in_RE or e2.in_RE
        for eid in e2.records:
            self.edges[pair_of(eid)] = e1
        self.edges[e2.pair_id] = e1
        return e1

    def mark_almost_involution(self, rec: LinkRecord, witness):
        edge = self.edge_of(rec)
        if not edge.self_loop:
            raise GraphError("almost involutions are self-links")
        edge.almost_involution = True
        edge.witnesses = edge.witnesses + (witness,)

    def dump(self):
        """Edge-per-line text dump with vertex-key comments."""
        lines = []
        names = {}
        for key, v in sorted(self.vertices.items(), key=lambda kv: kv[1].name):
            names[key] = v.name
            lines.append(f"# vertex {v.name}: key {_short(key)}"
                         + (" (base)" if key == self.base_key else ""))
        uniq = {id(e): e for e in self.edges.values()}
        for e in sorted(uniq.values(), key=lambda e: _short(e.pair_id)):
            a = names.get(e.source_key, "?")
            b = names.get(e.target_key, "?")
            tags = []
            if e.in_RE:
                tags.append("R_E")
            if e.self_loop:
                tags.append("self")
            if e.almost_involution:
                tags.append("almost-involution")
            suffix = ("  # " + ",".join(tags)) if tags else ""
            lines.append(f"{a} -- {b}{suffix}")
        return "\n".join(lines) + "\n"

    def summary(self):
        lines = [f"vertices: {len(self.vertices)}"]
        for v in self.vertices.values():
            tag = " (base)" if v.key == self.base_key else ""
            lines.append(f"  vertex {v.name}{tag}")
        uniq = {id(e): e for e in self.edges.values()}
        lines.append(f"edges: {len(uniq)}")
        for e in uniq.values():
            kind = "self-loop" if e.self_loop else "link"
            ai = {True: " almost-involution", None: "", False: ""}[e.almost_involution]
            ref = " in R_E" if e.in_RE else ""
            lines.append(f"  {kind}{ref}{ai}: {len(e.records)} record(s)")
        if self.unknown_merges:
            lines.append(f"unmerged-unknown pairs: {self.unknown_merges}")
        return "\n".join(lines)


def _record_by_id(graph, edge_id):
    edge = graph.edges.get(pair_of(edge_id))
    if edge is None:
        return None
    return edge.records.get(edge_id) or next(iter(edge.records.values()))


def same_vertex(a: DataSurface, b: DataSurface):
    """Tri-valued data-level isomorphism of vertex payloads."""
    if a.vertex_key() == b.vertex_key():
        return True
    if a.tower is not b.tower and a.tower.field_key() != b.tower.field_key():
        return None
    if a.gtype != b.gtype:
        return False
    if len(a.radicals) != len(b.radicals):
        return False
    # match the radical lists (order may differ)
    n = len(a.radicals)
    matched = False
    for perm in itertools.permutations(range(n)):
        ok = True
        for i, j in enumerate(perm):
            same = a.radicals[i].same_field(b.radicals[j])
            if same is not True:
                ok = False
                break
        if ok and _kernels_match(a, b, perm):
            matched = True
            break
    if not matched:
        return False
    checks = [a.K.same_field(b.K)]
    if (a.L is None) != (b.L is None):
        return False
    if a.L is not None:
        checks.append(a.L.same_field(b.L))
    checks.append(_status_match(a.k_trivial, b.k_trivial))
    checks.append(_status_match(a.l_trivial, b.l_trivial))
    sb = _handles_match(a.sb_pair, b.sb_pair)
    checks.append(sb)
    if (a.conic is None) != (b.conic is None):
        return False
    if a.conic is not None:
        checks.append(a.conic.same_class(b.conic))
    if any(c is False for c in checks):
        return False
    if any(c is None for c in checks):
        return None
    return True


def _kernels_match(a, b, perm):
    """Whether the kernels agree once b's radicals are put in a's order."""
    kb = {(uf, tuple(zs[j] for j in perm)) for uf, zs in b.kernel()}
    return set(a.kernel()) == kb


def _status_match(s1, s2):
    """Tri-valued equality of two verdicts; a foreign verdict is refused."""
    if UNKNOWN in (check_verdict(s1), check_verdict(s2)):
        return None
    return s1 == s2


def _handles_match(pair_a, pair_b):
    results = []
    for x in pair_a:
        row = [x.same_class(y) for y in pair_b]
        results.append(row)
    if any(r is True for row in results for r in row):
        return True
    if all(r is False for row in results for r in row):
        return False
    return None


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------

def explore_graph(source, point_generators, depth=1):
    """Breadth-first materialization of the model graph around the surface."""
    src = as_data_surface(source)
    graph = BirGraph(base_key=src.vertex_key())
    graph.add_vertex(src)
    graph.handles[src.vertex_key()] = point_handles(src.spec, point_generators)

    frontier = [(src.vertex_key(), 0)]
    while frontier:
        vkey, dth = frontier.pop(0)
        if dth >= depth:
            continue
        vertex = graph.vertex(vkey)
        for h in list(graph.handles[vkey]):
            if not h.gp or h.degree not in (2, 3):
                continue
            if h.origin == "inverse" and not h.chain:
                # the link at an inverse base point is the inverse link itself
                parent = _record_by_id(graph, h.root_id[1])
                if parent is not None:
                    graph.out[(vkey, h.root_id)] = parent.reversed()
                    continue
            try:
                rec = link(vertex.data, h, name=f"chi[{h.name}]")
            except LinkError as e:
                graph.notes.append(f"link at {h.name} skipped: {e}")
                continue
            tgt_v, created = graph.add_vertex(rec.target)
            if tgt_v.key != rec.target.vertex_key():
                rec = replace(rec, target=tgt_v.data)
            is_ref = created and vkey == graph.base_key
            edge = graph.add_edge(rec, is_ref=is_ref)
            graph.out[(vkey, h.root_id)] = rec
            if created:
                if vkey == graph.base_key:
                    tgt_v.ref_edge = edge.pair_id
                new_handles = [rec.inverse_point]
                for other in graph.handles[vkey]:
                    if other.identity_key() == h.identity_key():
                        continue
                    new_handles.append(transport(other, rec))
                graph.handles[tgt_v.key] = new_handles
                frontier.append((tgt_v.key, dth + 1))
    return graph


# ---------------------------------------------------------------------------
# edge classification
# ---------------------------------------------------------------------------

def classify_edge(graph: BirGraph, rec: LinkRecord, aut_witnesses=()):
    """Orientation tag of the link: positive / negative / almost-involution."""
    edge = graph.edge_of(rec)
    for w in aut_witnesses:
        kind = w[0]
        if kind == "almost-involution":
            psi = w[1]
            src_spec = rec.source.spec
            ok = True
            if isinstance(psi, TwistedAutomorphism):
                if src_spec is None or not is_automorphism(src_spec, psi):
                    ok = False
            if ok and edge.self_loop and \
                    rec.point.fld.same_field(rec.inverse_point.fld) is True:
                graph.mark_almost_involution(rec, w)
            else:
                raise GraphError("almost-involution witness failed verification")
        elif kind == "equivalent":
            graph.merge_edges(w[1], w[2], w)
    if edge.almost_involution:
        return "almost-involution"
    if edge.in_RE:
        return "positive"
    return "positive" if rec.edge_id == edge.pair_id else "negative"


# ---------------------------------------------------------------------------
# words and the quotient map
# ---------------------------------------------------------------------------

class Token(Record):
    kind: str                 # A / B / C / D / C4 (degree-4 Geiser)
    payload: object           # LinkRecord, TwistedAutomorphism, or tag
    inverse: bool = False

    def __repr__(self):
        inv = "^-1" if self.inverse else ""
        if self.kind in ("C", "D") and not isinstance(self.payload, LinkRecord):
            return f"{self.kind}[aut]{inv}"
        try:
            name = self.payload.name
        except AttributeError:  # a tag; a record is never stringified whole
            name = str(self.payload)
        return f"{self.kind}[{name}]{inv}"


class BirWord(Record):
    tokens: tuple

    def __repr__(self):
        return " . ".join(map(repr, self.tokens)) or "id"


def word_to_generators(graph: BirGraph, tour) -> BirWord:
    """Decompose a closed tour at the base into A/B/C/D generator tokens.

    `tour` is a sequence of LinkRecords (data-composable) and ("aut", psi)
    markers; it must start and end at the base vertex.
    """
    hops = list(tour)
    if not hops:
        return BirWord(())
    # composability and closure
    pos = graph.base_key
    for hop in hops:
        if isinstance(hop, tuple) and hop[0] == "aut":
            continue
        if hop.source.vertex_key() != pos:
            raise GraphError("tour hops do not compose")
        pos = hop.target.vertex_key()
    if pos != graph.base_key:
        raise GraphError("tour is not closed at the base vertex")

    segments = []
    cur = []
    pos = graph.base_key
    for hop in hops:
        cur.append(hop)
        if not (isinstance(hop, tuple) and hop[0] == "aut"):
            pos = hop.target.vertex_key()
            if pos == graph.base_key:
                segments.append(cur)
                cur = []
    if cur:
        segments.append(cur)

    tokens = []
    for seg in segments:
        tokens.extend(_segment_tokens(graph, seg))
    return BirWord(tuple(tokens))


def _segment_tokens(graph, seg):
    """Tokens for a base-to-base segment, per the inductive rewriting."""
    if not seg:
        return []
    first = seg[0]
    if isinstance(first, tuple) and first[0] == "aut":
        return [Token("C", first[1])] + _segment_tokens(graph, seg[1:])
    if first.target.vertex_key() == graph.base_key:
        # a self-link (or degree-4 Geiser tour) at the base
        tok = Token("C", first)
        return [tok] + _segment_tokens(graph, seg[1:])
    v1 = first.target.vertex_key()
    ref = graph.reference_record(v1)
    if pair_of(first.edge_id) != pair_of(ref.edge_id):
        rest = _segment_tokens(graph, [ref] + seg[1:])
        return [Token("B", first)] + rest
    if len(seg) < 2:
        raise GraphError("segment ends away from the base")
    second = seg[1]
    if isinstance(second, tuple) and second[0] == "aut":
        rest = _segment_tokens(graph, [ref] + seg[2:])
        return [Token("D", second[1])] + rest
    if second.source.vertex_key() != v1:
        raise GraphError("tour hops do not compose")
    v2 = second.target.vertex_key()
    if v2 == v1:
        rest = _segment_tokens(graph, [ref] + seg[2:])
        return [Token("D", second)] + rest
    if v2 == graph.base_key:
        # chi2 o chi_{v1} = (B_{chi2^{-1}})^{-1}
        tail = _segment_tokens(graph, seg[2:])
        return [Token("B", second.reversed(), inverse=True)] + tail
    ref2 = graph.reference_record(v2)
    rest = _segment_tokens(graph, [ref2] + seg[2:])
    return [Token("A", second)] + rest


# -- free product words ------------------------------------------------------

class QuotientImage(Record):
    """Reduced word in the free product; letters are (factor, value) pairs."""

    letters: tuple
    mode: str  # "index3" or "index2"

    def is_identity(self):
        return not self.letters

    def __mul__(self, other):
        return QuotientImage(
            _reduce_letters(self.letters + other.letters), self.mode
        )

    def inverse(self):
        inv = []
        for fac, val in reversed(self.letters):
            if fac[0] == "Z":
                inv.append((fac, -val))
            else:
                inv.append((fac, val))
        return QuotientImage(_reduce_letters(inv), self.mode)

    def z_factors(self):
        return {fac[1] for fac, _ in self.letters if fac[0] == "Z"}

    def __repr__(self):
        if not self.letters:
            return "id"
        parts = []
        for fac, val in self.letters:
            if fac[0] == "Z":
                parts.append(f"z[{_short(fac[1])}]^{val}")
            elif fac[0] == "Z2":
                parts.append(f"t[{_short(fac[1])}]")
            elif fac[0] == "E2sum":
                parts.append("sum(" + "+".join(sorted(_short(x) for x in val)) + ")")
            else:
                parts.append(f"geiser[{fac[1]}]")
        return " * ".join(parts)


def _canonical_repr(key):
    """A string of the key's content that does not depend on set or dict
    order: the members of a set and the items of a dict are sorted by their
    strings.

    A key shares its subobjects (one tower key in every field id, one point
    key in every handle of a chain), so each distinct subobject's string is
    built once per call, keyed by `id`.  The key keeps every subobject
    alive during the call, so no id is reused by another object.
    """
    done = {}

    def text(obj):
        s = done.get(id(obj))
        if s is None:
            if isinstance(obj, (frozenset, set)):
                s = "{" + ",".join(sorted(map(text, obj))) + "}"
            elif isinstance(obj, tuple):
                s = "(" + ",".join(map(text, obj)) + ")"
            elif isinstance(obj, dict):
                s = "{" + ",".join(sorted(
                    text(k) + ":" + text(v) for k, v in obj.items())) + "}"
            else:
                s = repr(obj)
            done[id(obj)] = s
        return s

    return text(key)


def _short(key):
    import hashlib

    return hashlib.sha1(_canonical_repr(key).encode()).hexdigest()[:6]


def _reduce_letters(letters):
    """The reduced word of a letter sequence, in one pass.

    Each letter merges into the top of the stack; a merge that cancels pops
    it, so the next letter meets the one below.  Kept letters are nontrivial
    and differ in factor from their neighbours.
    """
    out = []
    for fac, val in letters:
        if out and out[-1][0] == fac:
            _, pval = out.pop()
            if fac[0] == "Z":
                val = pval + val
            elif fac[0] == "E2sum":
                val = pval ^ val
            else:
                val = (pval + val) % 2
            if val:
                out.append((fac, val))
        elif val % 2 if fac[0] in ("Z2", "geiser") else val:
            out.append((fac, val))
    return tuple(out)


def psi_image(graph: BirGraph, word: BirWord) -> QuotientImage:
    """Image of the word under the quotient homomorphism Psi."""
    mode = "index2" if graph.base().data.surface_index() == 2 else "index3"
    letters = []
    for tok in word.tokens:
        letters.extend(_token_letters(graph, tok, mode))
    return QuotientImage(_reduce_letters(letters), mode)


def _token_letters(graph, tok: Token, mode):
    if tok.kind == "C4" or (isinstance(tok.payload, tuple)
                            and tok.payload and tok.payload[0] == "geiser"):
        name = tok.payload[1] if isinstance(tok.payload, tuple) else tok.payload
        return [(("geiser", name), 1)]
    if not isinstance(tok.payload, LinkRecord):
        return []  # automorphism tokens map to the identity
    rec = tok.payload
    edge = graph.edge_of(rec)
    if edge.in_RE and not edge.self_loop:
        return []
    if mode == "index2":
        # in the index-2 quotient every letter is +1 regardless of orientation
        return [(("E2sum",), frozenset([edge.pair_id]))]
    if edge.almost_involution is None and edge.self_loop:
        raise GraphError(
            f"self-link {rec.name}: almost-involution status unresolved; "
            "classify_edge needs a witness"
        )
    if edge.almost_involution:
        return [(("Z2", edge.pair_id), 1)]
    sign = 1 if rec.edge_id == edge.pair_id else -1
    if tok.inverse:
        sign = -sign
    return [(("Z", edge.pair_id), sign)]


# ---------------------------------------------------------------------------
# relation checking
# ---------------------------------------------------------------------------

def check_relation(graph: BirGraph, word: BirWord, relation_meta=None):
    """Data-level identity check of a closed word.

    Composes the constituent links (Severi-Brauer data must return to the
    base) and, for the six-term hexagonal pattern, verifies the base-point
    transport identities and pairings.
    """
    hops = []
    for tok in word.tokens:
        hops.extend(_token_hops(graph, tok))
    pos = graph.base_key
    for hop in hops:
        if isinstance(hop, tuple) and hop[0] == "aut":
            continue
        if hop.source.vertex_key() != pos:
            raise GraphError("relation word does not compose")
        pos = hop.target.vertex_key()
    if pos != graph.base_key:
        raise GraphError("relation word is not closed")
    if relation_meta and relation_meta[0] == "hexagonal":
        recs = relation_meta[1]
        if len(recs) != 6:
            raise GraphError("hexagonal relation needs six links")
        for i in range(2, 6):
            base_pt = recs[i].point
            want_root = ("ind", recs[i - 2].edge_id)
            if getattr(base_pt, "root_id", None) != want_root:
                return False
            if not base_pt.chain or base_pt.chain[-1] != recs[i - 1].edge_id:
                return False
        for i in range(3):
            e1 = graph.edge_of(recs[i])
            e2 = graph.edge_of(recs[i + 3])
            if e1 is not e2:
                return False
    return True


def _token_hops(graph, tok: Token):
    if not isinstance(tok.payload, LinkRecord):
        return [("aut", tok.payload)]
    rec = tok.payload
    if tok.kind == "C":
        hops = [rec]
    elif tok.kind == "B":
        ref = graph.reference_record(rec.target.vertex_key())
        hops = [rec, ref.reversed()]
    elif tok.kind == "A":
        ref1 = graph.reference_record(rec.source.vertex_key())
        ref2 = graph.reference_record(rec.target.vertex_key())
        hops = [ref1, rec, ref2.reversed()]
    elif tok.kind == "D":
        ref = graph.reference_record(rec.source.vertex_key())
        hops = [ref, rec, ref.reversed()]
    else:
        hops = [rec]
    if tok.inverse:
        hops = [h.reversed() for h in reversed(hops)]
    return hops


# ---------------------------------------------------------------------------
# the six-term relation between 2-links
# ---------------------------------------------------------------------------

def hexagonal_relation(spec: SurfaceSpec, p: ClosedPointSpec, q: ClosedPointSpec):
    """Instantiate the elementary relation chi6 o ... o chi1 = id at 2-points.

    The base points alternate between the transports of p and q and of the
    inverse indeterminacy points, as in the rank-3 fibration picture; the
    pairings chi1 ~ chi4, chi2 ~ chi5, chi3 ~ chi6 are recorded with Geiser
    witnesses.
    """
    h_p = declared_point_handle(spec, p)
    h_q = declared_point_handle(spec, q)
    chi1 = link(as_data_surface(spec), h_p, name="hx1")
    cur = chi1.target
    chi2 = link(cur, transport(h_q, chi1), name="hx2")
    recs = [chi1, chi2]
    prev2, prev1 = chi1, chi2
    for i in range(3, 7):
        base_pt = transport(prev2.inverse_point, prev1)
        rec = link(prev1.target, base_pt, name=f"hx{i}")
        recs.append(rec)
        prev2, prev1 = prev1, rec
    if recs[-1].target.vertex_key() != as_data_surface(spec).vertex_key():
        raise GraphError("hexagonal relation does not close")
    return recs


def hexagonal_graph(spec, p, q):
    """Explored graph containing the relation's edges, pairings declared."""
    recs = hexagonal_relation(spec, p, q)
    graph = explore_graph(spec, [p, q], depth=1)
    for rec in recs:
        graph.add_edge(rec)
    for i in range(3):
        graph.merge_edges(recs[i], recs[i + 3], ("equivalent-geiser", i))
    return graph, recs
