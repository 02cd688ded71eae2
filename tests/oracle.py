"""Independent reference for cluster parses.

Counts derivations and builds reading multisets for a token list by
eager enumeration: pick the finite head, check the verbs right of it
form a governance chain, splice adverbial slots into every level's
member list at every position, then match members against tokens
positionally (members left of the head in reverse list order).
Semantics are assembled bottom-up as canonical tuples in the same shape
the engine's canonical form uses.

No solver machinery is imported: this is a from-scratch model used to
cross-check the engine's counts.  `ReferenceUnifier` at the end is the
same kind of model for `terms.unify`: it reads the engine's term classes
but none of its unification or store code.
"""

from __future__ import annotations

from collections import Counter

from clgram.terms import Atom, Avm, ListCons, Struct, Var

MAIN_FRAMES = ("iv", "tv", "dtv")


def _sem_index(ix: str) -> tuple:
    return ("avm", "sem_obj", (("index", ("atom", ix)),))


def _sem_obj(qfsoa: tuple, restr: tuple) -> tuple:
    return ("avm", "sem_obj",
            (("nuc", ("avm", "nucleus",
                      tuple(sorted((("qfsoa", qfsoa), ("restr", restr)))))),))


def _soa(sort: str, feats: dict[str, tuple]) -> tuple:
    return ("avm", sort, tuple(sorted(feats.items())))


def _wrap_restr(rel: str, sem: tuple) -> tuple:
    assert sem[0] == "avm" and sem[1] == "sem_obj"
    feats = dict(sem[2])
    nuc = dict(feats["nuc"][2])
    new_restr = ("cons", ("atom", rel), nuc["restr"])
    return _sem_obj(nuc["qfsoa"], new_restr)


def _wrap_op(soa_sort: str, sem: tuple) -> tuple:
    return _sem_obj(_soa(soa_sort, {"soa_arg": sem}), ("nil",))


# slot kinds: ("verb", level) / ("obj", level, role) /
#             ("compsubj", level) / ("subj",) / ("adv", level, ordinal)

def _splice(base: list, count: int, level: int, ordinal: int = 0):
    """All merges of `count` adverbial slots into `base`, order kept."""
    if count == 0:
        yield base
        return
    # insert one adverbial slot here, or keep the next base member
    for rest in _splice(base, count - 1, level, ordinal + 1):
        yield [("adv", level, ordinal)] + rest
    if base:
        for rest in _splice(base[1:], count, level, ordinal):
            yield [base[0]] + rest


def _level_lists(chain: list, lexicon, level: int, budget: int):
    """Yield possible member lists for chain[level] after its own
    adjunct insertions, bottom-up."""
    verb = lexicon.verbs[chain[level]]
    if level == len(chain) - 1:
        pre_options = [[("obj", level, role) for role in verb.roles[1:]]]
    else:
        pre_options = []
        for below in _level_lists(chain, lexicon, level + 1, budget):
            pre = [("verb", level + 1)] + below
            if verb.frame == "aci":
                pre = pre + [("compsubj", level + 1)]
            pre_options.append(pre)
    for pre in pre_options:
        used = sum(1 for s in pre if s[0] == "adv")
        for extra in range(0, budget - used + 1):
            yield from _splice(pre, extra, level)


def _build_sem(chain: list, lexicon, level: int, subj_ix: str,
               fillers: dict) -> tuple:
    """Semantics of chain[level]'s entry: the stem relation wrapped by
    this level's adverbials in list-position order (earliest innermost)."""
    verb = lexicon.verbs[chain[level]]
    if verb.frame in MAIN_FRAMES:
        feats = {verb.roles[0]: _sem_index(subj_ix)}
        for role in verb.roles[1:]:
            feats[role] = _sem_index(fillers[("obj", level, role)])
        sem = _sem_obj(_soa(verb.soa, feats), ("nil",))
    else:
        if verb.frame == "aux":
            below_ix = subj_ix
        else:  # aci: the complement's subject is one of the fillers
            below_ix = fillers[("compsubj", level + 1)]
        below = _build_sem(chain, lexicon, level + 1, below_ix, fillers)
        sem = _sem_obj(_soa(verb.soa, {"arg1": _sem_index(subj_ix),
                                       "soa_arg": below}), ("nil",))
    for ordinal in sorted(k[2] for k in fillers if k[0] == "adv" and k[1] == level):
        adv = lexicon.advs[fillers[("adv", level, ordinal)]]
        if adv.kind == "restr":
            sem = _wrap_restr(adv.rel, sem)
        else:
            sem = _wrap_op(adv.soa, sem)
    return sem


def oracle_parse(lexicon, tokens: list[str]) -> tuple[int, Counter]:
    """(derivation count, Counter of canonical readings) for tokens that
    already went through lexicon.tokenize."""
    derivations = 0
    readings: Counter = Counter()
    adv_budget = sum(1 for t in tokens if t in lexicon.advs)
    for h, head_tok in enumerate(tokens):
        word = lexicon.finite_map.get(head_tok)
        if word is None:
            continue
        left, right = tokens[:h], tokens[h + 1:]
        chain = [word]
        ok = True
        for t in right:
            v = lexicon.verbs.get(t)
            if v is None or not v.nonfinite:
                ok = False
                break
            chain.append(t)
        if not ok:
            continue
        if lexicon.verbs[chain[-1]].frame not in MAIN_FRAMES:
            continue
        if any(lexicon.verbs[w].frame in MAIN_FRAMES for w in chain[:-1]):
            continue
        for members in _level_lists(chain, lexicon, 0, adv_budget):
            full = members + [("subj",)]
            lefts = [s for s in full if s[0] != "verb"]
            if len(lefts) != len(left):
                continue
            fillers: dict = {}
            matched = True
            for pos, slot in enumerate(reversed(lefts)):
                tok = left[pos]
                if slot[0] == "adv":
                    if tok not in lexicon.advs:
                        matched = False
                        break
                else:
                    if tok not in lexicon.nouns:
                        matched = False
                        break
                fillers[slot] = (tok if slot[0] == "adv"
                                 else lexicon.nouns[tok].index)
            if not matched:
                continue
            derivations += 1
            readings[_build_sem(chain, lexicon, 0, fillers[("subj",)],
                                fillers)] += 1
    return derivations, readings


class ReferenceUnifier:
    """Plain recursive unification with a full occurs check, for terms
    that no store has bound.  Bindings live in a dict keyed by node
    identity: a variable maps to its value, a record to the record it
    merged into, which is a fresh record with the sort meet and the
    survivor's features followed by the other's new ones, as the engine
    orders them.  A failed unify leaves the dict in a partial state."""

    def __init__(self, sorts):
        self.sorts = sorts
        self.bound: dict[int, object] = {}   # its values keep merged records alive

    def deref(self, t):
        while id(t) in self.bound:
            t = self.bound[id(t)]
        return t

    def occurs(self, target, t) -> bool:
        t = self.deref(t)
        if t is target:
            return True
        if isinstance(t, ListCons):
            return self.occurs(target, t.head) or self.occurs(target, t.tail)
        if isinstance(t, Struct):
            return any(self.occurs(target, a) for a in t.args)
        if isinstance(t, Avm):
            return any(self.occurs(target, v) for v in t.feats.values())
        return False

    def unify(self, a, b) -> bool:
        a, b = self.deref(a), self.deref(b)
        if a is b:
            return True
        if isinstance(a, Var) or isinstance(b, Var):
            v, t = (a, b) if isinstance(a, Var) else (b, a)
            if self.occurs(v, t):
                return False
            self.bound[id(v)] = t
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, Atom):
            return a.name == b.name
        if isinstance(a, ListCons):
            return self.unify(a.head, b.head) and self.unify(a.tail, b.tail)
        if isinstance(a, Struct):
            return (a.name == b.name and len(a.args) == len(b.args)
                    and all(self.unify(x, y) for x, y in zip(a.args, b.args)))
        if isinstance(a, Avm):
            meet = self.sorts.meet(a.sort, b.sort)
            if meet is None or self.occurs(a, b) or self.occurs(b, a):
                return False
            merged = Avm(meet, dict(a.feats))
            self.bound[id(a)] = self.bound[id(b)] = merged
            for f, v in b.feats.items():
                survivor = self.deref(merged)
                if f not in survivor.feats:
                    survivor.feats[f] = v
                elif not self.unify(survivor.feats[f], v):
                    return False
            return True
        return False    # NIL is one object, met above

    def canonical(self, t, numbering: dict | None = None) -> tuple:
        """The form `render.canonical` gives `t` once the engine has made
        these bindings: variables numbered by first visit, records'
        features sorted."""
        if numbering is None:
            numbering = {}
        t = self.deref(t)
        if isinstance(t, Atom):
            return ("atom", t.name)
        if isinstance(t, Var):
            return ("var", numbering.setdefault(id(t), len(numbering) + 1))
        if isinstance(t, ListCons):
            return ("cons", self.canonical(t.head, numbering),
                    self.canonical(t.tail, numbering))
        if isinstance(t, Struct):
            return ("struct", t.name,
                    tuple(self.canonical(a, numbering) for a in t.args))
        if isinstance(t, Avm):
            return ("avm", t.sort.name, tuple(sorted(
                (f, self.canonical(v, numbering)) for f, v in t.feats.items())))
        return ("nil",)
