"""Seeded input generators for the benchmark workloads.

Pure Python with no import of clgram, so a set-up child process can make
its inputs before its clock starts.  The same seed gives the same inputs.

Each generator fixes the structure that sets the cost of an operation
(how many adverbials, how long the verb chain, which frame, which list
length) and lets the seed choose the words within that structure.  That
keeps a run's medians comparable from seed to seed while the inputs
still differ.
"""

from __future__ import annotations

import random
import string

# Packaged vocabulary the scope sentences draw on (src/clgram/data/lexicon.tsv).
NOUNS = ["arie", "bob", "cadeautjes", "boeken", "het artikel", "de vrouwen"]
ADVERBIALS = ["vandaag", "op tijd", "met een verrekijker", "toevallig",
              "blijkbaar"]
FINITE_AUX = ["wil", "zou", "probeerde"]
NONFINITE_AUX = ["willen", "kunnen", "moeten"]
MAIN_VERBS = {"iv": ["slapen"], "tv": ["slaan", "kussen", "bekijken"]}
OBJECTS = {"iv": 0, "tv": 1, "dtv": 2}

# (adverbials, aux verbs, main-verb frame), one sentence each per scope
# pass.  The costliest cell comes twice, so that with about ten passes in
# a run the tail percentile falls inside its group, and the median falls
# inside the pair of cells that cost about the same.  Three adverbials
# over two auxes (up to 90 derivations, 1.5 s a parse) are left out to
# keep a pass near two seconds.
SCOPE_CELLS = [(1, 1, "iv"), (1, 1, "tv"), (1, 2, "iv"), (2, 1, "iv"),
               (1, 2, "tv"), (2, 1, "tv"), (3, 1, "iv"), (2, 2, "iv"),
               (3, 1, "tv"), (2, 2, "tv"), (2, 2, "tv")]

# concat_chain list lengths: n to 2n in steps of 2**(1/4), n = 250.
# Solve time is quadratic in n today (0.08 s to 0.33 s), so a pass takes
# about a second and a run holds twenty-odd passes: enough for the tail
# percentile to fall inside the group of longest lists.
CONCAT_LADDER = [250, 297, 354, 420, 500]

SYNTH_NOUNS = 2400
SYNTH_VERBS = 2000
SYNTH_ADVERBIALS = 600
SYNTH_FRAMES = ["iv"] * 3 + ["tv"] * 5 + ["dtv"] * 2
SYNTH_ROLES = ["agent", "theme", "goal"]


def scope_sentences(seed: int) -> list[str]:
    """One sentence per SCOPE_CELLS entry: subject, adverbials, objects,
    verb chain.  The seed picks the words; the word order is fixed, as
    where the adverbials stand changes how many derivations there are."""
    rng = random.Random(f"scope-{seed}")
    out = []
    for advs, auxes, frame in SCOPE_CELLS:
        nouns = rng.sample(NOUNS, 1 + OBJECTS[frame])
        middle = rng.sample(ADVERBIALS, advs) + nouns[1:]
        chain = [rng.choice(FINITE_AUX)]
        chain += [rng.choice(NONFINITE_AUX) for _ in range(auxes - 1)]
        chain.append(rng.choice(MAIN_VERBS[frame]))
        out.append(" ".join(["dat", nouns[0], *middle, *chain]))
    return out


def _words(rng: random.Random, prefix: str, count: int, taken: set) -> list[str]:
    out = []
    while len(out) < count:
        w = prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


class SyntheticLexicon:
    """About 5k seeded lexicon lines (nouns, verbs, adverbials) to append
    to the packaged lexicon, with the word lists sentences are built from."""

    def __init__(self, seed: int):
        rng = random.Random(f"lexicon-{seed}")
        taken: set[str] = set()
        # prefixes keep synthetic words apart from each other's finite
        # forms (verb + "t") and from the packaged words
        self.nouns = _words(rng, "zn", SYNTH_NOUNS, taken)
        verbs = _words(rng, "zv", SYNTH_VERBS, taken)
        self.verbs = {f: [] for f in OBJECTS}
        lines = [f"{n}\tnoun" for n in self.nouns]
        for v in verbs:
            frame = rng.choice(SYNTH_FRAMES)
            self.verbs[frame].append(v)
            roles = ",".join(SYNTH_ROLES[:1 + OBJECTS[frame]])
            lines.append(f"{v}\tverb\tframe={frame} soa={v}_soa roles={roles}")
        self.adverbials = _words(rng, "za", SYNTH_ADVERBIALS, taken)
        for a in self.adverbials:
            lines.append(f"{a}\t{rng.choice(['adv-restr', 'adv-op'])}")
        self.text = "\n".join(lines) + "\n"

    def sentences(self, seed: int) -> list[str]:
        """Fifteen short sentences a pass: for each frame, the right
        number of nouns and one too many, with the verb finite and with
        it under `wil`; plus three tv sentences with an adverbial, which
        cost about the median, so the median falls inside their group."""
        rng = random.Random(f"lexicon-sentences-{seed}")
        out = []
        for frame, objects in OBJECTS.items():
            for extra in (0, 1):
                for under_aux in (False, True):
                    verb = rng.choice(self.verbs[frame])
                    nouns = rng.sample(self.nouns, 1 + objects + extra)
                    chain = ["wil", verb] if under_aux else [verb + "t"]
                    out.append(" ".join(["dat", *nouns, *chain]))
        for _ in range(3):
            subj, obj = rng.sample(self.nouns, 2)
            out.append(" ".join(["dat", subj, rng.choice(self.adverbials), obj,
                                 rng.choice(self.verbs["tv"]) + "t"]))
        return out


def concat_lengths(seed: int) -> list[int]:
    """The ladder with a seeded offset of 0-3 elements per length."""
    rng = random.Random(f"concat-{seed}")
    return [n + rng.randint(0, 3) for n in CONCAT_LADDER]


def concat_items(seed: int, n: int) -> tuple[list[str], str]:
    """Seeded atoms for the prefix list and the one-atom suffix."""
    rng = random.Random(f"concat-items-{seed}-{n}")
    letters = string.ascii_lowercase
    return [rng.choice(letters) for _ in range(n)], rng.choice(letters)
