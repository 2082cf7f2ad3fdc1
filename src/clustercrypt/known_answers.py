"""Worked examples 1 and 2 of the source paper: the one known-answer table.

`selftest`, the tests and the demos read it. The benchmark keeps its own
copy, so that it checks the program against answers it did not produce.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .cluster import DynkinSpec, Rows
from .crypto import SecretKey, SystemParams
from .fields import FieldParams


class WorkedExample(NamedTuple):
    """A key and a message, and the ciphertext the paper gives for them."""

    name: str
    params: SystemParams
    key: SecretKey
    message: Union[int, str]  # as given to encode_message
    number: int  # the message's field integer, which decryption returns
    letter: Optional[str]
    values: tuple[int, ...]  # ciphertext values as field integers
    matrix: Rows  # ciphertext matrix (EQ8, EQ9)


EXAMPLE_1 = WorkedExample(
    "example1",
    SystemParams(FieldParams(2, 5, (1, 0, 1, 0, 0, 1)), DynkinSpec("A", 5)),
    SecretKey(0, (1, 4, 0, 3, 1)),
    message="F", number=6, letter="F",
    values=(11, 18, 4, 7, 25),
    matrix=(
        (0, -1, 1, 0, 0),
        (1, 0, -1, 0, 0),
        (-1, 1, 0, -1, 1),
        (0, 0, 1, 0, -1),
        (0, 0, -1, 1, 0),
    ),
)

EXAMPLE_2 = WorkedExample(
    "example2",
    SystemParams(FieldParams(101, 7, (46, 0, 1, 1, 0, 74, 0, 1)), DynkinSpec("D", 7)),
    SecretKey(3, (2, 3, 4, 3)),
    message=38927, number=38927, letter=None,
    values=(1, 101, 46596680922228, 12799379480831, 58938867466645,
            10510100501, 1061520150601),
    matrix=(
        (0, 1, 0, 0, 0, 0, 0),
        (-1, 0, 1, 0, 0, 0, 0),
        (0, -1, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, -1, -1),
        (0, 0, -1, -1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
    ),
)

WORKED_EXAMPLES = (EXAMPLE_1, EXAMPLE_2)
