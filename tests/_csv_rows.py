"""Row-by-row CSV reference for purcell_cool.cli._write_csv.

write_rows is the writer as it was before columns were formatted a block
at a time: every column through np.asarray(...).tolist(), zipped into
rows, and each row through one line template taken from the first row,
floats as %.17g and anything else as %s. Columns of unequal length lose
their tail to zip, so equivalence tests draw equal lengths.
"""

import numpy as np


def write_rows(path, header, *columns):
    rows = list(zip(*(np.asarray(col).tolist() for col in columns)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
            fh.writelines(line % row for row in rows)
