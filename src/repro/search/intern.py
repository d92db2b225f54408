"""Hash-consed interning of fingerprint structure.

State fingerprints (``search.fingerprint``) are built as nested tuples,
and equivalent states produce *equal* tuples along every path that
reaches them.  Interning maps every distinct tuple to one canonical
:class:`Node` (Filliâtre & Conchon's hash-consing), so

* canonical nodes hash and compare by identity in O(1): a seen-set
  lookup on a fingerprint costs the same whatever the size of the state
  (Python does not cache tuple hashes, so an un-interned tuple re-walks
  its whole subtree on every hash);
* a node's table key is the tuple of its children's canonical forms,
  so interning a tuple hashes ``arity`` items, never a subtree;
* a value that is already a node passes through without a walk — a
  fingerprinter can cache the node for a per-program constant (the scv
  globals frame) and splice it into every state for free;
* frozensets stay frozensets of canonical elements, so subsumption keeps
  structural ``⊆`` (frozensets cache their own hash);
* the seen-set stores each distinct subtree once (memory stays
  proportional to the number of distinct states, not to the number of
  fingerprint tokens).

Two tuples get the same node iff they are ``==`` — including Python's
``False == 0`` conflation, which type-exact callers (``compile.lower``)
tag away before interning.  Nodes from different tables never compare
equal, so fingerprints compare only within the :class:`Interner` — one
per search run — that made them; nothing leaks between programs in a
long-lived batch worker.
"""

from __future__ import annotations

from typing import Hashable


#: The containers ``intern`` canonicalises; anything else is a leaf.
_NESTED = (tuple, frozenset)


class Node:
    """The canonical form of one tuple: its interned ``children``.

    Hashes and compares by identity (``object``'s defaults)."""

    __slots__ = ("children",)

    def __init__(self, children: tuple) -> None:
        self.children = children

    def __repr__(self) -> str:
        return f"Node{self.children!r}"


class Interner:
    """Hash-consing table for immutable fingerprint values.

    ``intern`` maps tuples to canonical :class:`Node` objects and
    frozensets to canonical frozensets of canonical elements; scalars
    (ints, strings, frozen AST nodes, ...) and nodes pass through
    untouched.  ``hits``/``misses`` count table lookups — one per tuple
    or frozenset walked."""

    __slots__ = ("_table", "hits", "misses")

    def __init__(self) -> None:
        self._table: dict[Hashable, Hashable] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, value: Hashable) -> Hashable:
        if isinstance(value, tuple):
            kind = tuple
        elif isinstance(value, frozenset):
            kind = frozenset
        else:
            return value
        intern = self.intern
        key = kind([intern(v) if isinstance(v, _NESTED) else v for v in value])
        hit = self._table.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        hit = self._table[key] = Node(key) if kind is tuple else key
        return hit

    def __len__(self) -> int:
        return len(self._table)
