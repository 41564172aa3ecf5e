"""Wildcard queries over flow node sequences (paper §III notation).

The paper writes :math:`F_{i*j}` for "flows starting at node i and ending
at node j", with ``*`` matching any (possibly empty) node subsequence,
``?`` matching exactly one node, and ``?{n}`` matching exactly n nodes.
:func:`match_flows` evaluates such patterns over a :class:`FlowIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FlowError
from .enumeration import FlowIndex

__all__ = ["match_flows"]

Token = int | str | tuple[str, int]


@dataclass(frozen=True)
class FlowPattern:
    """A parsed wildcard pattern over node sequences.

    Tokens: an ``int`` matches that node id; ``"?"`` matches one node;
    ``("?", n)`` matches exactly ``n`` nodes; ``"*"`` matches any number of
    nodes (including zero).
    """

    tokens: tuple[Token, ...]

    def __str__(self) -> str:
        parts = []
        for t in self.tokens:
            if isinstance(t, tuple):
                parts.append(f"?{{{t[1]}}}")
            else:
                parts.append(str(t))
        return " ".join(parts)


def parse_pattern(spec: str) -> FlowPattern:
    """Parse a whitespace-separated pattern string.

    Examples: ``"3 * 7"`` is :math:`F_{3*7}`;
    ``"?{2} 4 5 *"`` is :math:`F_{?\\{2\\}45*}` (flows taking their third
    step along edge 4→5).
    """
    tokens: list[Token] = []
    for raw in spec.split():
        if raw == "*" or raw == "?":
            tokens.append(raw)
        elif raw.startswith("?{") and raw.endswith("}"):
            n = int(raw[2:-1])
            if n < 0:
                raise FlowError(f"negative repetition in pattern token {raw!r}")
            tokens.append(("?", n))
        else:
            try:
                tokens.append(int(raw))
            except ValueError as exc:
                raise FlowError(f"bad pattern token {raw!r}") from exc
    if not tokens:
        raise FlowError("empty flow pattern")
    return FlowPattern(tuple(tokens))


def _expand(tokens: tuple[Token, ...]) -> list[Token]:
    """Expand ?{n} repetitions into n single '?' tokens."""
    out: list[Token] = []
    for t in tokens:
        if isinstance(t, tuple):
            out.extend(["?"] * t[1])
        else:
            out.append(t)
    return out


def _matches(seq: np.ndarray, tokens: list[Token], si: int, ti: int) -> bool:
    """Recursive wildcard match of ``tokens[ti:]`` against ``seq[si:]``."""
    while ti < len(tokens):
        tok = tokens[ti]
        if tok == "*":
            # Try every split; '*' may absorb zero or more nodes.
            for skip in range(len(seq) - si + 1):
                if _matches(seq, tokens, si + skip, ti + 1):
                    return True
            return False
        if si >= len(seq):
            return False
        if tok == "?":
            si += 1
        else:
            if int(seq[si]) != tok:
                return False
            si += 1
        ti += 1
    return si == len(seq)


def match_flows(index: FlowIndex, pattern: FlowPattern | str) -> np.ndarray:
    """Indices of flows whose node sequence matches ``pattern``."""
    if isinstance(pattern, str):
        pattern = parse_pattern(pattern)
    tokens = _expand(pattern.tokens)
    fixed = [t for t in tokens if t != "*"]
    if len(fixed) > index.num_layers + 1:
        return np.zeros(0, dtype=np.int64)

    # Fast paths: anchor on fixed positions before/after wildcards.
    hits = [f for f in range(index.num_flows) if _matches(index.nodes[f], tokens, 0, 0)]
    return np.asarray(hits, dtype=np.int64)
