"""Exception hierarchy for the engine and the parser built on top of it."""

from __future__ import annotations


class ClgramError(Exception):
    """Base class for every error this package raises deliberately."""


class SortError(ClgramError):
    """Bad sort declaration: duplicate sort or unknown parent."""


class GrammarSyntaxError(ClgramError):
    """A single syntax error in grammar-language source, with position."""

    def __init__(self, message: str, line: int, col: int, path: str | None = None):
        self.message = message
        self.line = line
        self.col = col
        self.path = path
        where = f"{path}:{line}:{col}" if path else f"line {line}, col {col}"
        super().__init__(f"{where}: {message}")


class LoadError(ClgramError):
    """One or more syntax/declaration errors found while loading a source file."""

    def __init__(self, errors: list[GrammarSyntaxError]):
        self.errors = errors
        super().__init__("\n".join(str(e) for e in errors))


class UndefinedPredicateError(ClgramError):
    """A goal was called whose predicate has no clauses and was never registered."""


class LexiconError(ClgramError):
    """Malformed lexicon line or inconsistent entry parameters."""


class UnknownTokensError(ClgramError):
    """Input sentence contains tokens with no lexical entry."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        super().__init__("unknown tokens: " + ", ".join(tokens))


class NoFiniteVerbError(ClgramError):
    """Input sentence contains no token with a finite verb form."""


class LimitExceededError(ClgramError):
    """Search hit the step limit before the answer space was exhausted."""


class StaleParseError(ClgramError):
    """A derivation's sign was asked for after its Program added clauses,
    so replaying the parse that found it could give other signs."""
