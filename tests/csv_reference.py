"""Reference dataset CSV writer that the writer tests compare against.

This is the writer the package used before rows were formatted in
blocks: one ``csv.writer`` row per unit and one ``repr(float(x))`` per
cell.  It is slow and kept only as the oracle: ``save_csv_dataset``
must write its bytes exactly.
"""

from __future__ import annotations

import csv


def save_csv_dataset_reference(ds, path) -> None:
    header = ["y", "d"] + [f"z{j}" for j in range(1, ds.p + 1)]
    if ds.truth is not None:
        header += [f"mu{i}" for i in range(ds.n_treatments)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for m in range(ds.n):
            row = [repr(float(ds.y[m])), str(int(ds.d[m]))]
            row += [repr(float(v)) for v in ds.Z[m]]
            if ds.truth is not None:
                row += [repr(float(v)) for v in ds.truth[m]]
            writer.writerow(row)
