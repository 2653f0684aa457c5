"""One CLI job in a fresh interpreter, started by run.py.

    python3 perfbench/job.py run   ARGS...   the job, then its peak RSS
    python3 perfbench/job.py probe ARGS...   set-up probe

``run`` runs the CLI exactly as ``python3 -m splitmodel ARGS`` does, then
writes the interpreter's own peak resident set (VmHWM) to standard error
after ``RSS_MARKER``.  The parent cannot use ``ru_maxrss`` of the child:
that counts the memory of the parent the child was forked from.

``probe`` runs the CLI until its handler makes the first call into the
library, prints the monotonic clock at that moment and exits; the parent
subtracts its spawn time to get the set-up time.

This file imports only what ``python3 -m splitmodel`` imports anyway, so
that it adds nothing to the times it measures.  The parent sets PYTHONPATH
to the checkout's ``src``; a ``splitmodel`` imported from anywhere else is
refused.
"""

import importlib
import os
import runpy
import sys
import time
import types

MODULES = ("cli", "points", "frame", "linalg", "rings", "lattices",
           "degenerations", "charts")

# methods traced besides the module-level functions: the dense product, the
# k(u) product and lattice canonicalization (the Hermite form)
METHODS = {"linalg": ("Matrix.__mul__",),
           "rings": ("RationalFunction.__mul__",),
           "lattices": ("LaurentLattice.__init__",)}

RSS_MARKER = "perfbench peak RSS kB:"


def import_package():
    pkg = importlib.import_module("splitmodel")
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(pkg.__file__).startswith(src + os.sep):
        sys.exit(f"splitmodel imported from {pkg.__file__}, not from {src}")
    return {name: importlib.import_module(f"splitmodel.{name}")
            for name in MODULES}


def targets(modules, names):
    """Yield (span name, owner, attribute) for every traced callable: the
    public module-level functions of each named module, plus METHODS."""
    for short in names:
        mod = modules[short]
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                yield f"{short}.{attr}", mod, attr
        for dotted in METHODS.get(short, ()):
            cls_name, meth = dotted.split(".")
            yield f"{short}.{dotted}", getattr(mod, cls_name), meth


def install(modules, names, make_wrapper):
    """Replace every traced callable, and every alias of it held by a
    package module or by its own class, with make_wrapper(span, fn)."""
    holders = [m for k, m in sorted(sys.modules.items())
               if k == "splitmodel" or k.startswith("splitmodel.")]
    for span, owner, attr in list(targets(modules, names)):
        fn = getattr(owner, attr)
        wrapped = make_wrapper(span, fn)
        for holder in holders + ([owner] if isinstance(owner, type) else []):
            for key, val in list(vars(holder).items()):
                if val is fn:
                    setattr(holder, key, wrapped)


def write_peak_rss():
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write(f"\n{RSS_MARKER} {kb}\n")


def run():
    import_package()
    try:
        runpy.run_module("splitmodel", run_name="__main__", alter_sys=True)
    finally:
        write_peak_rss()


def probe(argv):
    modules = import_package()

    def make_sentinel(span, fn):
        def sentinel(*args, **kwargs):
            # first call into the library: the handler has been entered
            sys.stdout.write(f"{time.monotonic()!r}\n")
            sys.stdout.flush()
            os._exit(0)
        return sentinel

    install(modules, [m for m in MODULES if m != "cli"], make_sentinel)
    modules["cli"].main(argv)
    sys.exit("the handler made no call into the library")


if __name__ == "__main__":
    mode = sys.argv.pop(1)
    if mode == "run":
        run()
    elif mode == "probe":
        probe(sys.argv[1:])
    else:
        sys.exit(f"unknown mode {mode!r}")
