"""Minimal estimator plumbing: constructor-parameter introspection, and
the one way the package fans work out to processes.

Gives the pipeline classes the familiar ``get_params`` / ``set_params``
surface so they compose with grid-search style tooling without pulling
in scikit-learn as a dependency.
"""

import inspect

from .errors import IngestError


def map_tasks(fn, tasks, workers):
    """``[fn(task) for task in tasks]``: with ``workers`` and the tasks both
    above 1 the calls run in a pool of as many processes as the fewer of the
    two, and the results still come back in task order. A worker that dies
    raises :class:`IngestError`."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    # Imported here, so a serial run never loads multiprocessing.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    except BrokenProcessPool as exc:
        raise IngestError(f"a worker process died: {exc}") from exc


class ParamsMixin:
    """get_params/set_params backed by the ``__init__`` signature.

    Subclasses must store every constructor argument verbatim on ``self``
    under the same name (the usual estimator convention).
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"
