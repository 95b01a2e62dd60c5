"""Execution environments: scalar and array storage for DSL programs.

Arrays are 1-based (Fortran style) and backed by numpy; the environment
translates to 0-based storage and bounds-checks every access.  Integer
variables hold Python ints, reals hold Python floats; assignment converts
to the declared kind (Fortran assignment semantics: real→integer truncates
toward zero).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

import numpy as np

from repro.dsl.ast_nodes import ArrayDecl, Program, ScalarDecl
from repro.errors import InterpError

_DTYPES = {"real": np.float64, "integer": np.int64}


class Environment:
    """Storage for one program execution.

    Scalars live in :attr:`scalars` (name → int | float); arrays live in
    :attr:`arrays` (name → numpy array).  ``kinds`` maps every declared
    name to ``'real'`` or ``'integer'``.
    """

    def __init__(self, program: Program, inputs: Mapping[str, object] | None = None):
        self.scalars: dict[str, float | int] = {}
        self.arrays: dict[str, np.ndarray] = {}
        self.kinds: dict[str, str] = {}
        self._sizes: dict[str, int] = {}
        #: per-array mutation counters (bumped by every mutating method)
        #: and the content-digest memo they invalidate — see
        #: :meth:`content_digest`.
        self._versions: dict[str, int] = {}
        self._digest_memo: dict[str, tuple[tuple, bytes]] = {}

        self._dims: dict[str, tuple[int, ...]] = {}
        for decl in program.decls:
            self.kinds[decl.name] = decl.kind
            if isinstance(decl, ArrayDecl):
                self.arrays[decl.name] = np.zeros(decl.size, dtype=_DTYPES[decl.kind])
                self._sizes[decl.name] = decl.size
                self._dims[decl.name] = decl.dims
            else:
                assert isinstance(decl, ScalarDecl)
                self.scalars[decl.name] = 0 if decl.kind == "integer" else 0.0

        if inputs:
            for name, value in inputs.items():
                self.set_input(name, value)

    # -- initialization ---------------------------------------------------

    def set_input(self, name: str, value: object) -> None:
        """Initialize a declared scalar or array from a Python value.

        Multi-dimensional arrays accept numpy inputs of the declared
        shape; storage is column-major (Fortran order), matching the
        parse-time subscript linearization.
        """
        if name in self.arrays:
            data = np.asarray(value)
            target = self.arrays[name]
            dims = self._dims.get(name, target.shape)
            if data.ndim > 1:
                if data.shape != dims:
                    raise InterpError(
                        f"input for array {name!r} has shape {data.shape}, "
                        f"declared {dims}"
                    )
                data = data.flatten(order="F")
            if data.shape != target.shape:
                raise InterpError(
                    f"input for array {name!r} has shape {data.shape}, "
                    f"declared {target.shape}"
                )
            target[:] = data  # copies + converts dtype
            self.bump_version(name)
        elif name in self.scalars:
            if self.kinds[name] == "integer":
                self.scalars[name] = int(value)  # type: ignore[arg-type]
            else:
                self.scalars[name] = float(value)  # type: ignore[arg-type]
        else:
            raise InterpError(f"input {name!r} is not declared in the program")

    # -- scalar access ----------------------------------------------------

    def get_scalar(self, name: str) -> float | int:
        try:
            return self.scalars[name]
        except KeyError:
            raise InterpError(f"undeclared scalar {name!r}") from None

    def set_scalar(self, name: str, value: float | int) -> None:
        kind = self.kinds.get(name)
        if kind is None:
            raise InterpError(f"undeclared scalar {name!r}")
        if kind == "integer":
            self.scalars[name] = int(value)
        else:
            self.scalars[name] = float(value)

    # -- array access -----------------------------------------------------

    def array_shaped(self, name: str) -> np.ndarray:
        """The array viewed in its declared shape (Fortran order)."""
        dims = self._dims.get(name)
        if dims is None:
            raise InterpError(f"undeclared array {name!r}")
        return self.arrays[name].reshape(dims, order="F")

    def array_size(self, name: str) -> int:
        try:
            return self._sizes[name]
        except KeyError:
            raise InterpError(f"undeclared array {name!r}") from None

    def check_index(self, name: str, index: int) -> int:
        """Validate a 1-based index; return the 0-based offset."""
        size = self.array_size(name)
        if not 1 <= index <= size:
            raise InterpError(
                f"index {index} out of bounds for {name}({size})"
            )
        return index - 1

    def load(self, name: str, index: int) -> float | int:
        """Read ``name(index)`` (1-based)."""
        offset = self.check_index(name, index)
        value = self.arrays[name][offset]
        return int(value) if self.kinds[name] == "integer" else float(value)

    def store(self, name: str, index: int, value: float | int) -> None:
        """Write ``name(index) = value`` (1-based, kind-converting)."""
        offset = self.check_index(name, index)
        if self.kinds[name] == "integer":
            self.arrays[name][offset] = int(value)
        else:
            self.arrays[name][offset] = float(value)
        self.bump_version(name)

    # -- content digests ----------------------------------------------------

    def bump_version(self, name: str) -> None:
        """Invalidate ``name``'s memoized content digest.

        Every mutating :class:`Environment` method calls this.  Code
        that writes ``env.arrays[...]`` directly does not: the compiled
        executors, including the runner's compiled entry block, which
        may write pattern-signature inputs (SPICE's linked list).  The
        memo stays sound because every run builds a fresh environment
        and takes its pattern signature only after the entry block has
        finished: no digest exists yet that a direct write could make
        stale.
        """
        self._versions[name] = self._versions.get(name, 0) + 1

    def content_digest(self, name: str) -> bytes:
        """SHA-256 of ``name``'s contents, memoized on a cheap pre-key.

        The pre-key is (data pointer, shape, dtype, mutation version): a
        repeated pattern-signature computation over an unchanged array —
        the schedule-reuse hot path — skips re-reading the contents
        entirely, and the hash itself reads the buffer in place instead
        of paying a ``tobytes()`` copy.
        """
        arr = self.arrays[name]
        key = (
            arr.__array_interface__["data"][0],
            arr.shape,
            arr.dtype.str,
            self._versions.get(name, 0),
        )
        memo = self._digest_memo.get(name)
        if memo is not None and memo[0] == key:
            return memo[1]
        data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        digest = hashlib.sha256(data).digest()
        self._digest_memo[name] = (key, digest)
        return digest

    # -- snapshots ----------------------------------------------------------

    def snapshot_arrays(self, names: Iterable[str] | None = None) -> dict[str, np.ndarray]:
        """Deep-copy the named arrays (all arrays when ``names`` is None)."""
        selected = self.arrays if names is None else {n: self.arrays[n] for n in names}
        return {name: array.copy() for name, array in selected.items()}

    def restore_arrays(self, snapshot: Mapping[str, np.ndarray]) -> None:
        """Restore arrays previously captured by :meth:`snapshot_arrays`."""
        for name, data in snapshot.items():
            self.arrays[name][:] = data
            self.bump_version(name)

    def snapshot_scalars(self) -> dict[str, float | int]:
        """Copy of all scalar values."""
        return dict(self.scalars)

    def restore_scalars(self, snapshot: Mapping[str, float | int]) -> None:
        self.scalars.update(snapshot)

    def fork_scalars(self) -> "Environment":
        """A new environment with private scalars but *shared* arrays.

        This is how each virtual processor sees memory during a doall:
        scalar variables are privatized per processor, arrays stay shared
        (the access router handles privatized/reduction arrays).
        """
        clone = object.__new__(Environment)
        clone.scalars = dict(self.scalars)
        clone.arrays = self.arrays  # shared on purpose
        clone.kinds = self.kinds
        clone._sizes = self._sizes
        clone._dims = self._dims
        # Shared arrays mean shared versions/digests: a bump through the
        # fork must invalidate the parent's memo too.
        clone._versions = self._versions
        clone._digest_memo = self._digest_memo
        return clone

    def copy(self) -> "Environment":
        """An independent deep copy of this environment."""
        clone = object.__new__(Environment)
        clone.scalars = dict(self.scalars)
        clone.arrays = {name: array.copy() for name, array in self.arrays.items()}
        clone.kinds = dict(self.kinds)
        clone._sizes = dict(self._sizes)
        clone._dims = dict(self._dims)
        clone._versions = {}
        clone._digest_memo = {}
        return clone
