"""An in-memory columnar relation."""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

__all__ = ["Relation", "to_python"]


def to_python(value):
    """NumPy scalars become plain Python values (row dicts, group keys)."""
    return value.item() if isinstance(value, np.generic) else value


class Relation:
    """A named collection of equal-length columns (NumPy arrays).

    This is the minimal relational substrate the query processor needs:
    column access, row filtering by boolean mask, projection and appending
    derived (virtual) columns.

    ``sources`` maps a column name to a zero-argument callable producing
    that column's plain Python values (see :meth:`column_values`); derived
    relations pass their parent's values along this way.
    """

    def __init__(self, columns: dict[str, np.ndarray],
                 sources: dict[str, Callable[[], list]] | None = None
                 ) -> None:
        if not columns:
            raise ValueError("a relation needs at least one column")
        lengths = {name: np.asarray(values).shape[0]
                   for name, values in columns.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"columns have mismatched lengths: {lengths}")
        self._columns = {name: np.asarray(values) for name, values in columns.items()}
        self._sources = dict(sources or {})
        self._values: dict[str, list] = {}

    # -- basic accessors ---------------------------------------------------
    def __len__(self) -> int:
        return int(next(iter(self._columns.values())).shape[0])

    def column_names(self) -> list[str]:
        return sorted(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"unknown column {name!r}; "
                           f"available: {self.column_names()}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def column_values(self, name: str) -> list:
        """Column ``name`` as a list of plain Python values, built once.

        A relation derived from another one (:meth:`with_column`,
        :meth:`filter`, :meth:`take`, :meth:`project`) picks its values out
        of its parent's list, so result rows selected from a long-lived
        table relation share the table's Python objects instead of boxing
        every cell again on every query.
        """
        values = self._values.get(name)
        if values is None:
            # Threads racing here build equal lists; either may be kept.
            source = self._sources.get(name)
            values = source() if source is not None \
                else self.column(name).tolist()
            self._values[name] = values
        return values

    def _pick(self, name: str, selector: np.ndarray) -> list:
        values = self.column_values(name)
        return [values[i] for i in np.arange(len(values))[selector].tolist()]

    def _rows(self, selector: np.ndarray) -> "Relation":
        """The rows ``selector`` picks (a mask or integer indices), with
        their Python values picked from this relation's."""
        return Relation({name: values[selector]
                         for name, values in self._columns.items()},
                        {name: partial(self._pick, name, selector)
                         for name in self._columns})

    # -- relational operations -------------------------------------------------
    def with_column(self, name: str, values: np.ndarray) -> "Relation":
        """A new relation with an added (or replaced) column."""
        values = np.asarray(values)
        if values.shape[0] != len(self):
            raise ValueError(f"column {name!r} has length {values.shape[0]}, "
                             f"expected {len(self)}")
        columns = dict(self._columns)
        columns[name] = values
        return Relation(columns, {other: partial(self.column_values, other)
                                  for other in self._columns if other != name})

    def filter(self, mask: np.ndarray) -> "Relation":
        """A new relation keeping only rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != len(self):
            raise ValueError("mask length does not match relation length")
        return self._rows(mask)

    def take(self, indices: np.ndarray) -> "Relation":
        """A new relation with rows reordered/selected by integer indices."""
        return self._rows(np.asarray(indices))

    def project(self, names: list[str]) -> "Relation":
        """A new relation with only the named columns."""
        if not names:
            raise ValueError("projection needs at least one column")
        return Relation({name: self.column(name) for name in names},
                        {name: partial(self.column_values, name)
                         for name in names})

    def to_dict(self) -> dict[str, np.ndarray]:
        """A shallow copy of the column mapping."""
        return dict(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation(rows={len(self)}, columns={self.column_names()})"
