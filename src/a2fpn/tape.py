"""The backward as a tape: the forward records, the backward replays.

A tape is a Wengert list (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., ch. 3-4) that only puts the hand-derived adjoints in order: each
entry is ``(bwd, cache, ins, outs)``, a stage's ``op_bwd``, its cache and
the slots it read and wrote.  A slot is a name the forward binds, like a
variable: a parameter's store name, ``image``, ``f{L}`` for the feature map
of level L, or a name internal to one module (``mgc.fused``).  A stage that
replaces a value writes its slot again, as a fusion site writes ``f3``
back; the reverse replay makes this exact, since every reader of a binding
ran after the stage that wrote it.
"""

from __future__ import annotations


class Tape(list):
    """The entries in forward order."""

    def backward(self, grads):
        """Replay the entries last to first from grads, a map of slots to
        the gradients of their last bindings, and return that map.

        ``bwd(cache, *gradients of outs)`` returns one gradient per slot of
        ins, in order and nested in tuples or lists as it likes, and a dict
        among them adds gradients under its own keys; a None slot takes
        none.  Each entry leaves the tape before it runs, so its cache is
        freed once it has run.  It takes its outputs' gradients out of the
        map, and each gradient it returns is added into its slot's, the
        first one taken as it comes.  The map ends with the gradients of
        the slots no entry wrote: the parameters and inputs the tape
        reached.  A written slot that no gradient reached is a KeyError.
        """
        grads = dict(grads)
        while self:
            bwd, cache, ins, outs = self.pop()
            got = bwd(cache, *[grads.pop(slot) for slot in outs])
            del cache
            for slot, g in _pairs(got, iter(ins)):
                if slot is not None:
                    grads[slot] = grads[slot] + g if slot in grads else g
            del got
        return grads


def _pairs(got, slots):
    """(slot, gradient) of each gradient in a backward's result."""
    if isinstance(got, dict):
        yield from got.items()
    elif isinstance(got, (tuple, list)):
        for item in got:
            yield from _pairs(item, slots)
    else:
        yield next(slots), got


def record(tape, bwd, result, ins, outs):
    """The output of a forward's ``result = (output, cache)``, after
    appending ``(bwd, cache, ins, outs)`` to tape; with no tape the cache
    is dropped here."""
    out, cache = result
    if tape is not None:
        tape.append((bwd, cache, ins, outs))
    return out
