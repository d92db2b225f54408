"""Hash-consed interning of fingerprint structure.

State fingerprints (``search.fingerprint``) are hash-consed *as they are
built* (Filliâtre & Conchon's hash-consing): every token is interned at
the moment it is assembled from already-interned children, so

* canonical nodes hash and compare by identity in O(1): a seen-set
  lookup on a fingerprint costs the same whatever the size of the state
  (Python does not cache tuple hashes, so an un-interned tuple re-walks
  its whole subtree on every hash);
* interning is one dict probe on the key exactly as given — no
  recursion, no rebuilt key — and hashing that key touches its items,
  whose nested nodes hash by identity;
* a value that is already a node passes through without a lookup — a
  fingerprinter can cache the node for a per-program constant (the scv
  globals frame) and splice it into every state for free;
* frozensets (refinement sets) stay frozensets: their equality is
  order-free, and they cache their own hash;
* the table stores each distinct interned token once, so states share
  their common subtrees (memory stays proportional to the number of
  distinct tokens, not to the number of fingerprint tokens built).

**The caller's contract.**  ``intern`` looks at one level only, so it
is exact — two keys get the same node iff they are ``==`` — only when
every value nested in a key is represented the same way wherever an
equal value occurs: either always by its canonical form (a node, or the
frozenset ``intern`` returned), or always raw (a tuple over canonical
leaves) at that position.  A node never equals a raw tuple, so a value
interned in one state and left raw in an equal one would split two
equal states.  The fingerprinters keep the contract by interning each
token at the point it is returned.

Equality is Python's ``==`` — including the ``False == 0`` conflation,
which fingerprint tokens tag away (``_datum_token``).  Nodes from
different tables never compare equal, so fingerprints compare only
within the :class:`Interner` — one per search run — that made them;
nothing leaks between programs in a long-lived batch worker.
"""

from __future__ import annotations

from typing import Hashable


class Node:
    """The canonical form of one tuple: its ``children``, as given.

    Hashes and compares by identity (``object``'s defaults)."""

    __slots__ = ("children",)

    def __init__(self, children: tuple) -> None:
        self.children = children

    def __repr__(self) -> str:
        return f"Node{self.children!r}"


class Interner:
    """Hash-consing table for immutable fingerprint values.

    ``intern`` maps a tuple to its canonical :class:`Node` and a
    frozenset to its canonical (first-seen equal) frozenset, with one
    table lookup and no walk of nested values; anything else (scalars,
    frozen AST nodes, nodes) passes through untouched.  ``hits`` /
    ``misses`` count the lookups of tuples and frozensets."""

    __slots__ = ("_table", "hits", "misses")

    def __init__(self) -> None:
        self._table: dict[Hashable, Hashable] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, value: Hashable) -> Hashable:
        # The table's keys are tuples and frozensets, which no leaf or
        # node equals: probe first, and type-test only on a miss.
        hit = self._table.get(value)
        if hit is not None:
            self.hits += 1
            return hit
        if isinstance(value, tuple):
            hit = Node(value)
        elif isinstance(value, frozenset):
            hit = value
        else:
            return value
        self.misses += 1
        self._table[value] = hit
        return hit

    def __len__(self) -> int:
        return len(self._table)
