"""Per-layer tracing of structprob from outside the package.

``Tracer`` wraps the functions through which one module of the package calls
into the next (it patches the name the *calling* module looks up, or the
method on the class), so no file of the package is edited.  Each wrapped
call is a span: its count and its self time (duration minus the time of the
traced calls it made) are added to per-name totals.  A few wrappers also
record counts read from arguments or results, such as draws and certificate
depths.  Calls made while no request span is open are passed through
untraced, so reference checks never count.

Spans are aggregated, not stored one by one: the scalar sampling paths make
hundreds of thousands of calls per request.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from time import perf_counter

from structprob import cli, model, partition, samplers, spaces, training

SPACE_CLASSES = (spaces.Hypercube, spaces.Permutations, spaces.Subtrees,
                 spaces.CyclicPermutations)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# hooks: (tracer, args, kwargs, result) -> None, run inside the span


def _ratio_hook(tr, args, kwargs, result):
    tr.counts["partition.draws"] += result.sample_size


def _cftp_batch_hook(tr, args, kwargs, result):
    target, n = _arg(args, kwargs, 0, "target"), _arg(args, kwargs, 1, "n")
    tr.counts["samplers.cftp_batch.draws"] += n
    tr.counts["samplers.cftp_batch.proposals"] += int(result[1].sum())
    tr.counts["samplers.cftp_batch.max_depth"] = max(
        tr.counts["samplers.cftp_batch.max_depth"], int(result[1].max()))
    tr.floor_proposals += n * math.exp(2.0 * target.beta * target.score_bound)


def _cftp_scalar_hook(tr, args, kwargs, result):
    target = _arg(args, kwargs, 0, "target")
    tr.counts["samplers.cftp_scalar.draws"] += 1
    tr.counts["samplers.cftp_scalar.proposals"] += result[1].steps_taken
    tr.floor_proposals += math.exp(2.0 * target.beta * target.score_bound)


def _approx_batch_hook(tr, args, kwargs, result):
    target = _arg(args, kwargs, 0, "target")
    eps_tv, n = _arg(args, kwargs, 1, "eps_tv"), _arg(args, kwargs, 2, "n")
    steps = samplers.mixing_time_bound(
        model.effective_norm_budget(target.params, target.space),
        model.FEATURE_NORM_BOUND, eps_tv)
    tr.counts["samplers.approx_batch.draws"] += n
    tr.counts["samplers.approx_batch.steps"] += n * steps


def _train_hook(tr, args, kwargs, result):
    tr.counts["training.trace_rows"] += len(result[1].rows)


def _gradient_hook(tr, args, kwargs, result):
    tr.counts["training.iterations"] += 1  # exact mode: one gradient per iteration


def _table_built(result) -> bool:
    return result is not None


# (owner, attribute, span name, hook, keep).  ``keep(result)`` False makes
# the call transparent: no count, and its time stays with the caller.
def _patch_plan():
    plan = [
        (cli, "estimate_partition", "partition.estimate_partition", None, None),
        (partition, "estimate_ratio", "partition.estimate_ratio", _ratio_hook, None),
        (partition, "_cftp_batch_indices", "samplers.cftp_batch", _cftp_batch_hook, None),
        (partition, "sample_exact_cftp", "samplers.cftp_scalar", _cftp_scalar_hook, None),
        (partition, "_approx_batch_indices", "samplers.approx_batch",
         _approx_batch_hook, None),
        (samplers, "_draw_proposal", "samplers.proposal", None, None),
        (training, "_draw_proposal", "samplers.proposal", None, None),
        (samplers, "joint_features", "model.joint_features", None, None),
        (training, "joint_features", "model.joint_features", None, None),
        (cli, "exact_partition", "oracle.exact_partition", None, None),
        (training, "exact_partition", "oracle.exact_partition", None, None),
        (training, "exact_gradient", "oracle.exact_gradient", None, None),
        (cli, "train", "training.train", _train_hook, None),
        (training, "gradient", "training.gradient", _gradient_hook, None),
        (training, "objective", "training.objective", None, None),
        (cli, "predict_map", "training.predict_map", None, None),
        (samplers.GibbsTarget, "table", "samplers.table_build", None, _table_built),
    ]
    for cls in SPACE_CLASSES:
        plan += [
            (cls, "sample_uniform", f"spaces.{cls.kind}.sample_uniform", None, None),
            (cls, "enumerate", "spaces.enumerate", None, None),
            (cls, "output_features", "spaces.output_features", None, None),
        ]
    return plan


def patch_targets():
    """(owner, attribute) of every function a Tracer replaces."""
    return [(owner, attr) for owner, attr, *_ in _patch_plan()]


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.floor_proposals = 0.0
        self._stack: list[float] = []  # child time of each open span
        self._saved: list = []

    def __enter__(self):
        for owner, attr, name, hook, keep in _patch_plan():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap_attr(owner, attr, original, name, hook, keep))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap_attr(self, owner, attr, original, name, hook, keep):
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(
                self._wrap(original.func, name, hook, keep))
            wrapped.__set_name__(owner, attr)
            return wrapped
        return self._wrap(original, name, hook, keep)

    def _wrap(self, fn, name, hook=None, keep=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                kept = keep is None or keep(result)
                if kept and hook is not None:
                    hook(self, args, kwargs, result)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
            if kept:
                self.calls[name] += 1
                self.self_s[name] += duration - child
                stack[-1] += duration
            else:
                stack[-1] += child
            return result

        return wrapper

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span, such as one CLI request."""
        self._stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            duration = perf_counter() - start
            child = self._stack.pop()
            self.calls[name] += 1
            self.self_s[name] += duration - child

    def snapshot(self) -> dict:
        """Every count recorded so far (no times), keyed by metric name."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        return out
