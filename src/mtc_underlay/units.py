"""Decibel/linear conversions. All simulator arithmetic is linear (watts);
dB and dBm appear only at configuration and reporting boundaries."""

from __future__ import annotations

import numpy as np


def db_to_linear(value_db):
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def dbm_to_watts(value_dbm):
    return 10.0 ** ((np.asarray(value_dbm, dtype=float) - 30.0) / 10.0)
