"""Dump every queries() entry's output, or compare two dumps.

    cd <checkout> && PYTHONPATH=$PWD python <this script> dump <sf_dir> <out_dir> [name1,name2]
    python <this script> diff <dump_a> <dump_b>

``dump`` runs each query of the checkout on PYTHONPATH and writes one
pickle per query: its column names and Arrow types in order, and its rows
as sorted reprs.  ``diff`` prints every query whose dump differs between
two directories and exits 1 if any does.  Dump a parent commit and a change with the same sf to check
that a refactor returns exactly what it returned before.  Run a dump from
inside the checkout it dumps: Ray workers put the driver's working
directory ahead of PYTHONPATH.
"""
from __future__ import annotations

import os
import pickle
import sys


def dump(sf_dir: str, out_dir: str, only: list[str] | None) -> int:
    import pyarrow as pa
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False, log_to_driver=False)
    import __ray_entry__ as entry_mod

    os.makedirs(out_dir, exist_ok=True)
    for name, fn in entry_mod.queries().items():
        if only and name not in only:
            continue
        try:
            res = fn(sf_dir)
            if not isinstance(res, pa.Table):
                if hasattr(res, "to_arrow_refs"):  # a Ray Dataset
                    blocks = ray.get(res.to_arrow_refs())
                    # a 0-row block may carry another (or no) schema
                    blocks = [b for b in blocks if b.num_rows] or blocks[:1]
                    res = pa.concat_tables(blocks) if blocks else pa.table({})
                else:  # a pandas DataFrame
                    res = pa.Table.from_pandas(res, preserve_index=False)
            rows = sorted(map(repr, zip(*(c.to_pylist() for c in res.columns))))
            out = {"schema": [(f.name, str(f.type)) for f in res.schema], "rows": rows}
        except Exception as e:
            out = {"error": f"{type(e).__name__}: {e}"}
        with open(os.path.join(out_dir, name + ".pkl"), "wb") as f:
            pickle.dump(out, f)
        print(name, out.get("error", f"{len(out.get('rows', []))} rows"), flush=True)
    ray.shutdown()
    return 0


def diff(a: str, b: str) -> int:
    bad = 0
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    for n in names:
        pa_, pb = os.path.join(a, n), os.path.join(b, n)
        if not (os.path.exists(pa_) and os.path.exists(pb)):
            print("missing", n)
            bad += 1
            continue
        with open(pa_, "rb") as fa, open(pb, "rb") as fb:
            x, y = pickle.load(fa), pickle.load(fb)
        if x != y:
            bad += 1
            print("differs", n, x.get("schema", x.get("error")), y.get("schema", y.get("error")),
                  len(x.get("rows", [])), len(y.get("rows", [])))
    print(f"{len(names)} compared, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "dump":
        only = sys.argv[4].split(",") if len(sys.argv) > 4 else None
        sys.exit(dump(sys.argv[2], sys.argv[3], only))
    if len(sys.argv) == 4 and sys.argv[1] == "diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    sys.exit(__doc__)
