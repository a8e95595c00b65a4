"""Hypothesis strategies for scenario text, shared by the test modules.

``scenario_texts`` draws well-formed scenarios from the grammar in
``svq.scenario``, with formula bodies drawn by ``formula_texts``. ``mutated_texts`` then breaks them at the token level:
it deletes, duplicates and swaps tokens and splices in characters and
literals the lexer and the number parser must reject or survive.
"""

import functools

from hypothesis import strategies as st

from svq import And, Atom, Implies, Not, Or
from svq.scenario import _tokenize


# Formulas ----------------------------------------------------------------------


@functools.lru_cache
def formula_trees(atoms: tuple[str, ...]):
    """Formula ASTs over the named atoms, with not-chains drawn as often as
    single negations. Cached: a new recursive strategy per draw would cost
    more than the draw."""
    return st.recursive(
        st.sampled_from(atoms).map(Atom),
        lambda kids: st.one_of(
            kids.map(Not),
            kids.map(lambda f: Not(Not(f))),
            st.tuples(kids, kids).map(lambda t: And(*t)),
            st.tuples(kids, kids).map(lambda t: Or(*t)),
            st.tuples(kids, kids).map(lambda t: Implies(*t)),
        ),
        max_leaves=12,
    )


#: node type -> (its precedence, the least precedence its left and right
#: operands may have bare), as format_formula parenthesises.
_PRECEDENCE = {Not: (4, None, 4), And: (3, 3, 4), Or: (2, 2, 3), Implies: (1, 2, 1)}
_OPERATORS = {And: " and ", Or: " or ", Implies: " -> "}


@st.composite
def formula_texts(draw, atoms):
    """A formula tree and a text the parser reads back as that tree: the
    parentheses format_formula writes plus, now and then, redundant ones."""
    tree = draw(formula_trees(atoms))
    redundant = draw(st.randoms(use_true_random=False))  # one draw, not one per node

    def render(node, min_prec):
        if isinstance(node, Atom):
            text, prec = node.name, 5
        else:
            prec, left, right = _PRECEDENCE[type(node)]
            if isinstance(node, Not):
                text = "not " + render(node.operand, right)
            else:
                text = render(node.left, left) + _OPERATORS[type(node)] + render(node.right, right)
        if prec < min_prec or redundant.random() < 0.15:
            return f"({text})"
        return text

    return tree, render(tree, 0)


# Generated scenarios ---------------------------------------------------------
#
# Declarations, steps and queries interleave freely, so records run before
# some props are declared and before any state, clones pair with unclones or
# do not, and tiny components meet loose tolerances.

COMPONENTS = ["0", "1", "-1", "1/2", "1/sqrt(2)", "0.5i", "1-0.5i", "0.01", "0.000001", "1e-12"]
ENTRIES = ["0", "1", "-1", "1i", "0.001", "1/sqrt(2)"]
RECONSTRUCTS = ["reconstruct", "reconstruct p 0", "reconstruct p 1", "reconstruct p 0.25"]


@st.composite
def scenario_texts(draw):
    dim = draw(st.sampled_from([2, 3]))
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731

    def vector():
        if draw(st.booleans()):  # a basis vector, so that truth values are often determinate
            axis = draw(st.integers(0, dim - 1))
            return "[" + ", ".join("1" if i == axis else "0" for i in range(dim)) + "]"
        return "[" + ", ".join(pick(COMPONENTS) for _ in range(dim)) + "]"

    def matrix():
        if pick(["shift", "diagonal"]) == "shift":
            rows = [["1" if j == (i + 1) % dim else "0" for j in range(dim)] for i in range(dim)]
        else:
            rows = [[pick(ENTRIES) if j == i else "0" for j in range(dim)] for i in range(dim)]
        return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"

    lines, states, props, formulas = [], [], [], []
    tick = 0
    for _ in range(draw(st.integers(1, 16))):
        options = ["state", "prop", "record", "reconstruct", "check-past"]
        if states:
            options += ["clone", "clone-unclone", "unclone", "blackhole", "evolve", "feasible"]
        if states and props:
            options.append("eval")
        if props:
            options.append("formula")
        if formulas:
            options.append("super")
        if states:
            options += ["episode"] * 3
        kind = pick(options)
        if len(lines) < 2 and draw(st.integers(0, 3)):
            kind = "prop" if lines else "state"  # most runs start with a state and a prop
        if kind == "state":
            states.append(f"s{len(states)}")
            lines.append(f"state {states[-1]} = {vector()}")
        elif kind == "prop":
            props.append(f"P{len(props)}")
            spans = ", ".join(vector() for _ in range(draw(st.integers(1, 2))))
            lines.append(f"prop {props[-1]} = span({spans})")
        elif kind == "formula":
            formulas.append(f"f{len(formulas)}")
            lines.append(f"formula {formulas[-1]} = {draw(formula_texts(tuple(props)))[1]}")
        elif kind == "record":
            at = pick([tick, tick + 1, tick + 2, max(tick - 1, 0)])
            tick = max(tick, at)
            lines.append(f"record at {at}")
        elif kind == "episode":  # record, erase, record, reconstruct and audit
            erase = pick(["clone", "blackhole"])
            erase += f" {pick(states)} -> {pick(states)}" if erase == "clone" else f" {pick(states)}"
            lines += [f"record at {tick}", erase, f"record at {tick + 1}", pick(RECONSTRUCTS), "check-past"]
            tick += 1
        elif kind == "reconstruct":
            lines.append(pick(RECONSTRUCTS))
        elif kind == "check-past":
            lines.append("check-past")
        elif kind == "clone":
            lines.append(f"clone {pick(states)} -> {pick(states)}")
        elif kind == "clone-unclone":
            source = pick(states)
            lines.append(f"clone {source} -> {pick(states)}")
            lines.append(f"unclone {source} blank {pick(states)}")
        elif kind == "unclone":
            lines.append(f"unclone {pick(states)} blank {pick(states)}")
        elif kind == "blackhole":
            lines.append(f"blackhole {pick(states)}")
        elif kind == "evolve":
            lines.append(f"evolve {pick(states)} by {matrix()}")
        elif kind == "feasible":
            lines.append(f"feasible {pick(states)} {pick(states)}")
        elif kind == "eval":
            lines.append(f"eval {pick(states)} in {pick(props)}")
        else:
            lines.append(f"super {pick(formulas)}")
    return "\n".join(lines) + "\n"


# Mutated scenarios -----------------------------------------------------------

#: Text spliced between tokens: characters that are \w or Unicode digits but
#: start no token, a form feed (not whitespace here), literals too large for
#: a float, non-finite ones, and a formula nested past the parser's limit.
SPLICES = [
    "\u00b2",  # superscript two: isdigit, not isdecimal
    "\u00bd",  # one half: isnumeric
    "\u0663",  # Arabic-Indic three: a decimal digit
    "\u00e9",  # a letter
    "\x0c",
    "9" * 400,
    "1/" + "9" * 400,
    "1/sqrt(" + "9" * 400 + ")",
    "9" * 400 + "/" + "9" * 400,
    "1e999",
    "-1e999i",
    "1e-999",
    "1/0",
    "not " * 150,
    "# comment\n",
]


def token_pieces(text: str) -> tuple[str, list[str]]:
    """Split lexable text into its leading filler and one piece per token,
    each piece the token and the whitespace and comments after it."""
    _, _, offsets = _tokenize(text)  # the last offset is the end of the text
    return text[: offsets[0]], [text[a:b] for a, b in zip(offsets, offsets[1:])]


@st.composite
def mutated_texts(draw):
    head, pieces = token_pieces(draw(scenario_texts()))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "splice"] if pieces else ["splice"]))
        if op == "splice":
            at = draw(st.integers(0, len(pieces)))
            pieces.insert(at, draw(st.sampled_from(SPLICES)) + draw(st.sampled_from(["", " ", "\n"])))
            continue
        i, j = draw(st.integers(0, len(pieces) - 1)), draw(st.integers(0, len(pieces) - 1))
        if op == "delete":
            del pieces[i]
        elif op == "duplicate":
            pieces.insert(j, pieces[i])
        else:
            pieces[i], pieces[j] = pieces[j], pieces[i]
    return head + "".join(pieces)
