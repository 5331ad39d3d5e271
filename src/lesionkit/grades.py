"""Gleason grade-group codes and the fixed label encoding.

Voxel label codes (u8, both on disk and in memory):

    0  background
    1  prostate gland (no lesion)
    2  GS6      (grade group 1)
    3  GS3+4    (grade group 2)
    4  GS4+3    (grade group 3)
    5  GS>=8    (grade groups 4-5)

Clinically significant (CS) lesions are those with grade above GS6,
i.e. label codes 3, 4 and 5.
"""

from __future__ import annotations

import enum


class Grade(enum.IntEnum):
    """Gleason grade group, valued by its voxel label code."""

    GS6 = 2
    GS34 = 3
    GS43 = 4
    GS8 = 5

    @property
    def ordinal(self) -> int:
        """Rank 0..3 in aggressiveness order (GS6 < GS3+4 < GS4+3 < GS>=8)."""
        return int(self) - 2

    @property
    def display(self) -> str:
        return _DISPLAY[self]


_DISPLAY = {
    Grade.GS6: "GS6",
    Grade.GS34: "GS3+4",
    Grade.GS43: "GS4+3",
    Grade.GS8: "GS>=8",
}

_FROM_DISPLAY = {v: k for k, v in _DISPLAY.items()}

#: Fixed ordinal order used by confusion matrices and kappa weights.
GRADE_ORDER: tuple[Grade, ...] = (Grade.GS6, Grade.GS34, Grade.GS43, Grade.GS8)

#: Grades counted as clinically significant (GS > 6).
CS_GRADES: tuple[Grade, ...] = (Grade.GS34, Grade.GS43, Grade.GS8)

#: Sentinel used in detection records for undetected ground-truth lesions.
MISSED = "MISSED"

#: Sentinel grade for merged clinically-significant (binary) clusters.
CS_BINARY = "CS"

N_LABELS = 6


def parse_grade(text: str) -> Grade:
    """Parse a grade from its display name ("GS3+4") or label code ("3")."""
    s = text.strip()
    if s in _FROM_DISPLAY:
        return _FROM_DISPLAY[s]
    if s.isdigit() and int(s) in {g.value for g in Grade}:
        return Grade(int(s))
    raise ValueError(f"unknown grade {text!r} (expected one of {sorted(_FROM_DISPLAY)})")
