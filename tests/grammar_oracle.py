"""Rescanning legality: the oracle for the incremental grammar.

This is ``legal_tokens`` as it answered before generation carried one
:class:`padesr.expr.Grammar` per draw: every call rescans the whole partial
sequence, into the prefix demand stack or the postfix stack of subtree
depths, and tests the budget against that stack.  It shares no grammar code
with :mod:`padesr.expr`, so ``Grammar(...).legal()`` must list exactly what
it lists, in the same order, and raise ``ExprError`` on exactly the partials
it raises on.
"""

from padesr.expr import ExprError, Notation


def _min_completion_depth(depths):
    """Smallest final tree depth reachable from a postfix stack of subtree depths.

    Each stack entry can only merge with the combined result of everything
    above it, so the optimum is the pairwise top-down merge.
    """
    m = depths[-1]
    for d in reversed(depths[:-1]):
        m = max(d, m) + 1
    return m


def _prefix_demands(partial, budget):
    demands = [budget]
    for tok in partial:
        if not demands:
            raise ExprError("token after complete prefix expression")
        d = demands.pop()
        a = tok.arity
        if a and d < 1:
            raise ExprError("depth budget exceeded")
        for _ in range(a):
            demands.append(d - 1)
    return demands


def _postfix_depths(partial, budget):
    depths = []
    for tok in partial:
        a = tok.arity
        if a == 0:
            depths.append(0)
        elif a == 1:
            if not depths:
                raise ExprError("operand underflow")
            depths[-1] += 1
        else:
            if len(depths) < 2:
                raise ExprError("operand underflow")
            b = depths.pop()
            depths[-1] = max(depths[-1], b) + 1
    # appending a token never lowers the bound, so the final stack decides
    if depths and _min_completion_depth(depths) > budget:
        raise ExprError("depth budget exceeded")
    return depths


def legal_tokens_oracle(partial, notation, budget, alphabet):
    """Tokens that extend ``partial`` toward at least one in-budget completion,
    in the alphabet's canonical order."""
    if notation is Notation.PREFIX:
        demands = _prefix_demands(partial, budget)
        if not demands:
            return []
        if demands[-1] >= 1:
            return list(alphabet.ordered)
        return list(alphabet.leaves)

    depths = _postfix_depths(partial, budget)
    out = []
    # A pushed leaf merges into the top entry before anything below it, so it
    # reaches the same bound as a unary on the top entry; on an empty stack
    # it is the whole expression.
    unary_ok = bool(depths) and _min_completion_depth(
        depths[:-1] + [depths[-1] + 1]) <= budget
    if unary_ok or not depths:
        out.extend(alphabet.leaves)
    if unary_ok:
        out.extend(alphabet.unaries)
    if len(depths) >= 2:  # merging the top two leaves the bound as it is
        out.extend(alphabet.binaries)
    return out
