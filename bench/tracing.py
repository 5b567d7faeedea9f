"""In-memory span tracer that wraps library functions from outside.

Each target is a module attribute or class method, wrapped at the place
its caller looks it up: ``driver.iterate`` (imported into ``driver``),
``sqp.assemble_and_solve_kkt`` (called inside ``sqp``), and so on.  A
span is ``[name, start, end, parent, query, info]``; ``info`` holds counts
read from the call's arguments or result.  :meth:`Tracer.active` installs
the wrappers and always puts the original attributes back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from contextlib import contextmanager


def _sqp_summary(args, res):
    cfg = args[3] if len(args) > 3 else None
    factor = cfg.backtrack_factor if cfg is not None else 0.5
    halvings = sum(round(math.log(a) / math.log(factor))
                   for a in res.alpha_history)
    return {"iters": res.n_iter, "halvings": halvings,
            "failure": res.failure_reason}


#: (module, class or None, attribute, span name, info from (args, result))
TARGETS = [
    # burgers: the monolithic Newton reference (and the snapshot solves)
    ("ddrom.burgers", None, "solve_monolithic", "burgers.solve_monolithic",
     lambda a, r: {"newton_iters": r[1].niter}),
    ("ddrom.snapshots", None, "solve_monolithic", "burgers.solve_monolithic",
     lambda a, r: {"newton_iters": r[1].niter}),
    ("ddrom.burgers", None, "assemble", "burgers.assemble", None),
    ("ddrom.burgers", None, "jacobian", "burgers.jacobian", None),
    ("ddrom.driver", None, "assemble", "burgers.assemble", None),
    # offline stages
    ("ddrom.partition", None, "build_partition", "partition.build", None),
    ("ddrom.snapshots", None, "generate", "snapshots.generate", None),
    ("ddrom.driver", None, "pod", "pod.fit", None),
    ("ddrom.driver", None, "train", "autoencoder.train",
     lambda a, r: {"epochs": len(r[1]["train_loss"])}),
    ("ddrom.driver", None, "greedy_sample", "hyper.greedy_sample", None),
    ("ddrom.driver", None, "build_lsrom", "driver.build_rom", None),
    ("ddrom.driver", None, "build_nmrom", "driver.build_rom", None),
    ("ddrom.driver", None, "build_dd_fom", "driver.build_rom", None),
    ("ddrom.driver", None, "attach_hr", "driver.attach_hr", None),
    ("ddrom.driver", None, "fit_initializer", "driver.fit_initializer",
     None),
    # the online query and its phases
    ("ddrom.driver", None, "solve_rom", "driver.solve_rom",
     lambda a, r: {"parallel_s": r[1].parallel_seconds,
                   "speedup_model": r[1].speedup}),
    ("ddrom.driver", None, "build_problem", "driver.build_problem", None),
    ("ddrom.driver", None, "init_guess", "driver.init_guess", None),
    ("ddrom.driver", "RbfInitializer", "query", "driver.rbf_query", None),
    ("ddrom.driver", None, "multiplier_least_squares", "driver.multiplier_ls",
     None),
    ("ddrom.driver", None, "iterate", "driver.iterate", _sqp_summary),
    ("ddrom.driver", "RomInstance", "decode", "driver.decode", None),
    ("ddrom.driver", None, "restrict_blocks", "driver.error", None),
    ("ddrom.driver", None, "relative_error", "driver.error", None),
    ("ddrom.driver", None, "extract_subnet", "hyper.extract_subnet", None),
    # sqp
    ("ddrom.driver", None, "eval_gradients", "sqp.eval_gradients",
     lambda a, r: {"block_s": r.block_sum_seconds}),
    ("ddrom.sqp", None, "eval_gradients", "sqp.eval_gradients",
     lambda a, r: {"block_s": r.block_sum_seconds}),
    ("ddrom.sqp", None, "assemble_and_solve_kkt", "sqp.kkt",
     lambda a, r: {"dim": a[0].n_primal + a[0].n_mult}),
    # block-local evaluation
    ("ddrom.partition", "RestrictedResidual", "residual",
     "partition.residual", lambda a, r: {"rows": a[0].n_rows}),
    ("ddrom.partition", "RestrictedResidual", "jacobian",
     "partition.jacobian", None),
    ("ddrom.autoencoder", "Autoencoder", "decode", "autoencoder.decode",
     None),
    ("ddrom.autoencoder", "Autoencoder", "jacobian", "autoencoder.jacobian",
     None),
    ("ddrom.hyper", "Subnet", "decode", "hyper.subnet_decode", None),
    ("ddrom.hyper", "Subnet", "jacobian", "hyper.subnet_jacobian", None),
]


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self, targets=TARGETS):
        self.spans = []
        self.query = None          # id stamped on every span while set
        self._stack = []
        self._patches = []
        for mod_name, cls_name, attr, name, info in targets:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = inspect.getattr_static(owner, attr)
            if not inspect.isfunction(original) or (
                    inspect.isclass(owner) and attr not in vars(owner)):
                raise TypeError(f"cannot trace {mod_name}.{cls_name}.{attr}")
            self._patches.append(
                (owner, attr, original, self._wrap(original, name, info)))

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, out)
            return out

        return traced

    @property
    def originals(self):
        """``(owner, attribute, original)`` for every wrapped target."""
        return [(o, a, f) for o, a, f, _ in self._patches]

    @contextmanager
    def active(self, query=None):
        """Install the wrappers, stamp spans with ``query``, and restore
        every original attribute on exit, also on error."""
        self.query = query
        try:
            for owner, attr, _, wrapped in self._patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.query = None
            self._stack.clear()


def roots(spans) -> list:
    """Index of each span's outermost ancestor (parents precede children)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[3] < 0 else out[s[3]])
    return out
