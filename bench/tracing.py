"""In-memory span tracing of the program's layers, installed from outside.

The tracer wraps every public function defined in each layer module and
the ``__post_init__`` of the value classes that validate on construction.
A wrapped function is replaced wherever a ``beliefdyn`` module holds a
reference to it, so calls made through ``from .x import y`` bindings are
caught as well as module-qualified ones.  Generator functions are left
alone: their work runs in the consumer, so a span would only time the
creation of the generator.

Each span is (name, start, end, parent).  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

LAYERS = (
    "lattice",
    "belief",
    "dynamics",
    "commitment",
    "specialization",
    "documents",
    "cli",
    "verify",
)

# Classes whose construction validates the input; the span is named
# ``<layer>.<Class>`` and counts one build.
VALIDATED_CLASSES = {
    "belief": ("MassFunction", "ValueFunction"),
    "specialization": ("SpecializationMatrix", "GeneralizationMatrix", "DespecializationMatrix"),
}

ROOT = "bench.job"

# Called once per document entry: wrapped, they add about a third to a
# traced CLI session, so their time stays in the calling span.
UNWRAPPED = {"documents.subset_key", "documents.parse_subset_key"}


def _amount_lattice(args, kwargs, result):
    return float(np.asarray(args[0]).size)


def _amount_text_in(args, kwargs, result):
    return float(len(args[0].encode()))


def _amount_text_out(args, kwargs, result):
    return float(len(result.encode()))


def _amount_frame_rows(args, kwargs, result):
    return float(args[0].size)


# Per-function amount recorders: the quantity a span carries besides its time.
AMOUNTS = {
    "lattice.zeta_subsets": _amount_lattice,
    "lattice.mobius_subsets": _amount_lattice,
    "lattice.zeta_supersets": _amount_lattice,
    "lattice.mobius_supersets": _amount_lattice,
    "documents.parse_document": _amount_text_in,
    "documents.format_mass_document": _amount_text_out,
    "documents.format_value_document": _amount_text_out,
    "documents.format_matrix": _amount_text_out,
    "verify.dominated_specialization": _amount_frame_rows,
}


def _swap(value, targets):
    """``value`` with wrapped functions in place of traced ones (tuples too)."""
    if inspect.isfunction(value):
        return targets.get(value, value)
    if isinstance(value, tuple):
        swapped = tuple(_swap(v, targets) for v in value)
        if any(a is not b for a, b in zip(swapped, value)):
            return swapped
    return value


class Tracer:
    """Records spans while installed; restores every patched binding on removal."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()
        self._patched: list[tuple[object, str, object]] = []
        self.reports: dict[str, str] = {}

    def reset(self):
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_amount: list[float] = []
        self._stack: list[int] = [-1]

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        sid = self._id(name)
        amount = AMOUNTS.get(name)
        is_check = name.startswith("verify.check_")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if amount is not None:
                tracer.span_amount[idx] = amount(args, kwargs, result)
            if is_check:
                tracer.reports[name] = result.check
            return result

        return wrapper

    def _open(self, sid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1])
        self.span_amount.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"beliefdyn.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                    and f"{layer}.{attr}" not in UNWRAPPED
                ):
                    targets[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "beliefdyn" or mod_name.startswith("beliefdyn.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patch(mod, attr, targets[obj])
                elif isinstance(obj, dict):
                    # dispatch tables such as verify's check registry
                    for key, value in list(obj.items()):
                        swapped = _swap(value, targets)
                        if swapped is not value:
                            self._patch(obj, key, swapped)
        for layer, classes in VALIDATED_CLASSES.items():
            mod = importlib.import_module(f"beliefdyn.{layer}")
            for cls_name in classes:
                cls = getattr(mod, cls_name)
                original = cls.__dict__["__post_init__"]
                self._patch(cls, "__post_init__", self._wrap(original, f"{layer}.{cls_name}"))

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def remove(self):
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def run(self, fn, *args):
        """Call ``fn`` under a root span with the layers installed; returns (result, seconds)."""
        self.install()
        idx = self._open(self._id(ROOT))
        try:
            result = fn(*args)
        finally:
            self._close(idx)
            self.remove()
        return result, self.span_end[idx] - self.span_start[idx]

    def table(self) -> "SpanTable":
        return SpanTable(
            self.names,
            np.array(self.span_name, dtype=np.int64),
            np.array(self.span_parent, dtype=np.int64),
            np.array(self.span_start),
            np.array(self.span_end),
            np.array(self.span_amount),
        )


class SpanTable:
    """Columnar spans with self time derived from direct children."""

    def __init__(self, names, name, parent, start, end, amount):
        self.names = list(names)
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.amount = amount
        self.duration = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=name.size
        )
        self.self_time = self.duration - child

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            start=self.start,
            end=self.end,
            amount=self.amount,
        )
