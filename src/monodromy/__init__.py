"""Exact counts of commuting matrix tuples over finite fields.

The engine computes the counting polynomials; the oracle recomputes small
cases by brute force over explicit finite fields; the group module checks
the divisibility phenomena the counts exhibit in arbitrary finite groups.

``Refusal``, ``record``, ``decimal_str`` and ``prime_factors`` are defined
here for every layer, and so is ``BudgetExceeded``, which the oracle and the
group lab share; they share ``count_commuting_tuples`` too, from the small
``commuting`` module.  The other names load on first use (PEP 562), so
importing the package, or one of its modules, compiles only what that use
needs.
"""

import importlib
from operator import attrgetter


class Refusal(Exception):
    """The request is refused, as invalid input or over a ceiling; the CLI exits 2."""


class BudgetExceeded(Refusal, RuntimeError):
    """Requested enumeration is larger than the configured ceiling."""


_set = object.__setattr__


def record(cls):
    """Make ``cls`` a frozen value class over the fields its own annotations name, in order.

    It gives what ``@dataclass(frozen=True)`` gave these classes, without
    importing ``dataclasses`` (which imports ``inspect``, ``ast`` and ``dis``)
    or generating code: positional or keyword construction with class-level
    defaults; ``__post_init__`` run once the fields are set; ``AttributeError``
    on assignment or deletion; ``__eq__`` over the field tuple, only between
    instances of one class; ``__hash__`` the hash of the field tuple, as a
    dataclass's; and the dataclass ``repr``.  It replaces any of these methods
    the class body defines.  ``__post_init__`` may set a field, or an
    attribute that is not a field, with ``object.__setattr__``; attributes
    that are not fields stay out of equality, hash and repr.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count = len(names)
    post_init = getattr(cls, "__post_init__", None)
    if count == 1:  # a one-name attrgetter returns the bare value, not a 1-tuple
        get = attrgetter(*names)

        def key(self):
            return (get(self),)
    else:
        key = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):  # not via self.__dict__, which would make every read slower
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


def _bind(cls, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """Field values in order from one call's arguments and the class defaults."""
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments {sorted(kwargs)}")
    return values


_STR_SAFE = 10**640  # ints below this have at most 640 digits, the least int-to-str limit that can be set


def decimal_str(value: int) -> str:
    """``str`` of an int of any length; ``str`` refuses ints past 4300 digits by default."""
    if -_STR_SAFE < value < _STR_SAFE:
        return str(value)
    if value < 0:
        return "-" + decimal_str(-value)
    half = value.bit_length() * 3 // 20  # 3/10 < log10(2), so value // 10**half >= 1
    high, low = divmod(value, 10**half)
    return decimal_str(high) + decimal_str(low).zfill(half)


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing ``n >= 1``, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _retired(*args, **kwargs):
    """Stands in for a name the program no longer defines; raises when called.

    perfbench/spans.py wraps eight such names by attribute: ``ss_weight``,
    ``mixed_weight``, ``to_laurent``, ``_type_count_at_power``,
    ``count_monic_with_type`` and ``enumerate_types`` in ``engine``,
    ``poly_gcd`` in ``exactpoly`` and ``count_monic_with_type`` in
    ``typecomb``.  Nothing calls them.  They leave with the next change to the
    benchmark (ROADMAP direction 1).
    """
    raise NotImplementedError("retired: the program no longer defines this name")


_EXPORTS = {
    "commuting": ("count_commuting_tuples",),
    "exactpoly": ("LaurentPoly", "NotDivisible", "NotLaurent", "UnivariatePoly"),
    "engine": (
        "CountingPolynomial", "DegreeViolation", "IntegralityViolation", "InvalidArity", "MonicViolation",
        "WeightCache", "check_degree_monic", "check_laurent_quotient", "count_conjugacy_classes",
        "count_mixed_tuples", "count_semisimple_tuples", "hom_count",
    ),
    "typecomb": ("FactorizationType", "aut_factor", "enumerate_partitions", "enumerate_types", "type_pairs"),
    "fforacle": (
        "CensusRecord", "FieldSpec", "UnsupportedField", "brute_conj_count",
        "brute_hom_count", "enumerate_invertible", "field_make", "is_semisimple", "poly_type_census",
    ),
    "groupdiv": (
        "ClosureBudgetExceeded", "DivisibilityReport", "FiniteGroupTable", "PreconditionViolated",
        "coset_p_power_count", "divisibility_report", "frobenius_count", "group_generate",
        "hom_count_profinite_abelian", "load_corpus",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["Refusal", "BudgetExceeded", *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
