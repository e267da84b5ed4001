"""Read back the CSV that ``deev.gridio.write_csv`` writes, for the tests' round trips."""

import numpy as np

from deev.gridio import AxisSpec, Field2D, GridSpec


def _parse_axis_token(tok):
    label, lo, hi, count = tok.split(":")
    return AxisSpec(label=label, lo=float(lo), hi=float(hi), count=int(count))


def read_csv(source):
    """Read a field written by ``write_csv`` (bit-exact round trip)."""
    with open(source, "rb") as fh:
        first = fh.readline().decode("ascii").rstrip("\n")
        if not first.startswith("# "):
            raise ValueError(f"{source}: missing metadata line")
        meta = {}
        for pair in first[2:].split(" "):
            k, _, val = pair.partition("=")
            meta[k] = val
        spec = GridSpec(axis1=_parse_axis_token(meta.pop("axis1")), axis2=_parse_axis_token(meta.pop("axis2")))
        fh.readline()
        # numpy's reader streams the file and parses each token like float()
        vals = np.loadtxt(fh, dtype=np.float64, delimiter=",", usecols=2, comments=None, ndmin=1)
    if vals.size != spec.axis1.count * spec.axis2.count:
        raise ValueError(f"{source}: expected {spec.axis1.count * spec.axis2.count} rows, got {vals.size}")
    return Field2D(spec=spec, values=vals.reshape(spec.shape), metadata=meta)
