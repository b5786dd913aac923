"""Persistent spawn-based sidecar for the bounded ReDoS parse lane.

CPython's regex engine cannot be interrupted by signals mid-match, so the
only hard wall bound for a prescan-flagged parse is a kill-able process
(SCALE.md known-limitation; the blowup is the REFERENCE's own tokenizer
behavior, src/index.ts:833).  Round-4 review hardening: the lane previously
``fork()``-ed the (multithreaded) Ray worker per flagged document — a child
forked while another thread holds a malloc/Arrow/gRPC lock can deadlock
before it ever sends a result, making a benign prescan false positive
indistinguishable from a real timeout (a silent nondeterministic doc drop).
This module replaces that with ONE persistent ``spawn`` subprocess per
worker process: spawn starts from a clean single-threaded interpreter (no
inherited locks), the startup cost (~0.1 s; this module imports only the
stdlib and the pure-Python kernel) is amortized across every flagged
document the worker ever sees, and a timeout kills + respawns the sidecar.

Stages never call the sidecar directly: the single entry point is
``stages.extract_stage.map_documents``, which prescans a batch once, sends
each flagged document's module-level per-doc function here and runs the
same function in-process for every other document.  The protocol is
generic — :meth:`RedosSidecar.call` takes the function object, and the child
re-imports it by the module and name read off that object — so every stage
that parses whole documents shares ONE sidecar and one degraded-mode policy.
The sidecar runs the SAME kernels the stages run, so prescan false positives
come back bit-identical (tests/test_redos.py).
"""
from __future__ import annotations

import importlib
import multiprocessing as mp
import threading
from typing import Optional

from .fast_extract import extract_spans_into
from .parser import ParseMetrics

__all__ = ["RedosSidecar", "kernel_extract"]


def kernel_extract(html: str, media_map: Optional[dict], options: Optional[dict]):
    """One document through the flat-array kernel -> the lane result tuple
    ``(kinds, texts, refs, n_spans, valid, metrics6)``.  Extraction's
    per-document function in both lanes — the sidecar for prescan-flagged
    docs and in-process for the rest — so the two cannot drift."""
    metrics = ParseMetrics()
    kinds: list[str] = []
    texts: list[str] = []
    refs: list[str] = []
    n_spans, valid = extract_spans_into(
        html, media_map, options, metrics, kinds, texts, refs
    )
    return (
        kinds, texts, refs, n_spans, valid,
        (metrics.n_nodes, metrics.n_elements, metrics.n_text,
         metrics.n_comments, metrics.n_fixups, metrics.n_bytes),
    )


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(module), name)


def _ref(fn) -> tuple[str, str]:
    """``(module, name)`` under which the child re-imports ``fn``.  Raises
    TypeError for anything that is not a module-level function (lambda,
    closure, bound method): such a request could never resolve in the
    child, and every document sent with it would be dropped silently."""
    module = getattr(fn, "__module__", None)
    name = getattr(fn, "__qualname__", None)
    try:
        if _resolve(module, name) is fn:
            return module, name
    except (AttributeError, ImportError, TypeError, ValueError):
        pass
    raise TypeError(f"sidecar function must be module-level: {fn!r}")


# modules the sidecar pre-imports BEFORE the readiness handshake (lazy
# per-request import would otherwise run inside the first request's wall
# budget); best-effort — a missing module just falls back to lazy import
_PREWARM = (
    "node_html_parser_ray.stages.extract_stage",
    "node_html_parser_ray.stages.selector_stage",
    "node_html_parser_ray.stages.classify",
    "node_html_parser_ray.stages.flat_select",
)


def _sidecar_loop(conn) -> None:
    """Child body: pure compute over a pipe, one request -> one reply.

    The leading ``("ready", None)`` handshake lets the parent distinguish
    "child started" from "child died during spawn preparation" (e.g. a
    parent whose ``__main__`` is not an importable file — interactive
    stdin — where CPython's spawn re-import dies before this loop runs):
    startup death must surface as a spawn FAILURE (-> the never-spawned
    in-process fallback, preserving prescan-FP parity), never masquerade
    as a per-document timeout (-> silent doc drop).  Stage modules
    pre-import before the handshake so their ~0.6 s pyarrow/numpy import
    chain is charged to startup, never to the first flagged document's
    wall budget (review finding).

    A function exception travels back as an ``("err", repr)`` envelope;
    the parent turns it into ``None`` — the doc is recorded bounded-out
    like a timeout, NOT escalated to a whole-batch failure (review
    finding: raising in the parent made one poisonous doc fail its entire
    Ray task on every retry, where the pre-envelope behavior dropped just
    the doc)."""
    for m in _PREWARM:
        try:
            importlib.import_module(m)
        except Exception:  # noqa: BLE001 — prewarm is best-effort
            pass
    conn.send(("ready", None))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            conn.close()
            return
        module, name, args = msg
        try:
            conn.send(("ok", _resolve(module, name)(*args)))
        except Exception as ex:  # noqa: BLE001 — envelope, None in parent
            conn.send(("err", repr(ex)))


class RedosSidecar:
    """Lazily-started persistent subprocess running stage kernels.

    ``call(fn, args, timeout)`` returns ``fn(*args)``, or
    ``None`` when the wall bound expires (the sidecar is then killed and
    will respawn on the next call) OR when the function raised in the
    child (bounded drop of that one doc, never a whole-batch failure).
    Thread-safe; one instance is held per worker process (module global
    in ``stages.extract_stage``)."""

    def __init__(self) -> None:
        self._proc = None
        self._conn = None
        self._lock = threading.Lock()
        # becomes True the first time a spawn succeeds: after that, a
        # setup/send failure is transient (fd/memory pressure) and must NOT
        # fall back to an unbounded in-process parse of a flagged doc
        self._spawn_ok = False

    def _ensure(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            return
        self._close()
        ctx = mp.get_context("spawn")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_sidecar_loop, args=(child,), daemon=True)
        proc.start()
        child.close()
        self._proc, self._conn = proc, parent
        # readiness handshake: a child that died during spawn preparation
        # raises here (EOFError/timeout) so the caller sees a SPAWN failure
        # (never-spawned -> in-process fallback), not a fake doc timeout.
        # Startup cost — including the child's stage-module prewarm — is
        # thereby excluded from the first document's wall budget.
        try:
            if not parent.poll(30.0):
                raise RuntimeError("sidecar did not become ready")
            status, _ = parent.recv()
            if status != "ready":
                raise RuntimeError(f"unexpected sidecar handshake: {status}")
        except Exception:
            self._close()
            raise
        self._spawn_ok = True

    def _close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(1.0)
                if self._proc.is_alive():
                    self._proc.kill()
            self._proc.join()
        self._proc = self._conn = None

    def call(self, fn, args: tuple, timeout: float):
        """Bounded run of ``fn(*args)`` — ``fn`` a module-level function,
        re-imported in the child by its module and name; ``None`` on timeout,
        child crash, or child-raised exception (caller records the doc as
        dropped/bounded-out).

        Setup/send failure (round-4 review fix): if a spawn has EVER
        succeeded in this process, a later failure is transient resource
        pressure (EAGAIN/EMFILE on process or pipe creation) — return
        ``None`` like a timeout, because an unbounded in-process parse of a
        document the prescan just flagged is the exact hang this lane
        exists to prevent, and a degraded node is when it is most likely to
        fire.  Only when spawn has NEVER worked (platform without spawn
        support) fall back to the unbounded in-process function — reference
        behavior, and benign prescan FPs must not become dropped docs
        there."""
        request = (*_ref(fn), args)
        with self._lock:
            try:
                self._ensure()
                self._conn.send(request)
            except Exception:
                self._close()
                if self._spawn_ok:
                    # One respawn+resend before giving up (round-4 ADVICE):
                    # a sidecar that died between the is_alive() check and
                    # send (e.g. OOM-killed between requests) would
                    # otherwise drop this doc even though a fresh child
                    # can process it.  A second failure is real resource
                    # pressure — bounded drop.
                    try:
                        self._ensure()
                        self._conn.send(request)
                    except Exception:
                        self._close()
                        return None
                else:
                    return fn(*args)
            if self._conn.poll(timeout):
                try:
                    status, payload = self._conn.recv()
                except (EOFError, OSError):  # child crashed mid-reply
                    self._close()
                    return None
            else:
                self._close()  # timeout: kill; next call respawns
                return None
        if status == "err":
            # the function raised in the child: bounded drop of this one
            # doc (same caller-visible shape as a timeout) — escalating
            # would turn one poisonous doc into a whole-Ray-task poison
            # pill re-presented on every retry.  The never-spawned
            # in-process fallback still raises naturally (reference
            # behavior on platforms without spawn).
            return None
        return payload
