"""Type tags of the untyped language (§4.1) — a leaf module.

The primary tags are disjoint and exhaustive:

    integer | ratreal | nonreal | boolean | string | symbol | pair |
    null | procedure | box | void | vector | struct:<name>

``ratreal`` covers non-integer reals (the exact-rational / float slice
of the tower) and ``nonreal`` covers complex numbers with a nonzero
imaginary part.  ``number?`` is ``{integer, ratreal, nonreal}``;
``real?`` is ``{integer, ratreal}`` — this split is what lets the
engine reproduce the paper's ``0+1i`` counterexamples while keeping SMT
reasoning confined to integers (the documented §5.3 boundary).

This module imports nothing from the package: the primitive
declarations (``repro.prims.declarations``) read the tag sets while
``repro.prims`` is still initialising, so the sets must not depend on
anything that imports the registry.
"""

TAG_INTEGER = "integer"
TAG_RATREAL = "ratreal"
TAG_NONREAL = "nonreal"
TAG_BOOLEAN = "boolean"
TAG_STRING = "string"
TAG_SYMBOL = "symbol"
TAG_PAIR = "pair"
TAG_NULL = "null"
TAG_PROCEDURE = "procedure"
TAG_BOX = "box"
TAG_VOID = "void"
TAG_VECTOR = "vector"

BASE_TAGS = frozenset(
    {
        TAG_INTEGER,
        TAG_RATREAL,
        TAG_NONREAL,
        TAG_BOOLEAN,
        TAG_STRING,
        TAG_SYMBOL,
        TAG_PAIR,
        TAG_NULL,
        TAG_PROCEDURE,
        TAG_BOX,
        TAG_VOID,
        TAG_VECTOR,
    }
)

NUMBER_TAGS = frozenset({TAG_INTEGER, TAG_RATREAL, TAG_NONREAL})
REAL_TAGS = frozenset({TAG_INTEGER, TAG_RATREAL})
FIRST_ORDER_TAGS = frozenset(
    {TAG_INTEGER, TAG_RATREAL, TAG_NONREAL, TAG_BOOLEAN, TAG_STRING,
     TAG_SYMBOL, TAG_NULL, TAG_VOID}
)


def struct_tag(name: str) -> str:
    return f"struct:{name}"
