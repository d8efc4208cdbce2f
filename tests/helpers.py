"""Small factories shared across test modules."""

from __future__ import annotations

from pathlib import Path

from godspell.corpus import Author, Novel, Passage
from godspell.records import ActAnnotation


def make_novel(
    novel_id: str,
    genders: list[str] = ("female",),
    series_tag: str | None = None,
    title: str | None = None,
    year: int = 2010,
) -> Novel:
    return Novel(
        id=novel_id,
        title=title or novel_id.replace("-", " ").title(),
        authors=[Author(name=f"Author {i}", gender=g) for i, g in enumerate(genders)],
        publisher="Test House",
        year=year,
        series_tag=series_tag,
        awards=[],
        source_path=Path(f"{novel_id}.txt"),
    )


def make_passage(novel_id: str, index: int, position: float, text: str = "words") -> Passage:
    word_count = len(text.split())
    return Passage(
        novel_id=novel_id,
        index=index,
        text=text,
        word_count=word_count,
        word_start=index * word_count,
        word_end=(index + 1) * word_count,
        normalized_position=position,
    )


def make_annotation(
    novel_id: str,
    index: int,
    final: str = "NO",
    affect: str | None = None,
    impact: str | None = None,
    status: str = "ok",
    stage1_label: str | None = None,
    stage2_label: str | None = None,
) -> ActAnnotation:
    if status != "ok":
        return ActAnnotation(novel_id=novel_id, index=index, status=status,
                             failed_stage="stage1", error="transport")
    if stage1_label is None:
        stage1_label = "YES" if final == "YES" else "NO"
    stage1 = {
        "explanation": "scripted",
        "label": stage1_label,
        "act_description": "God acts." if stage1_label == "YES" else "NONE",
        "affected_description": "someone" if stage1_label == "YES" else "NONE",
    }
    stage2 = None
    if stage1_label == "YES":
        if stage2_label is None:
            stage2_label = "YES" if final == "YES" else "NO"
        stage2 = {"explanation": "scripted", "label": stage2_label}
    if final == "YES":
        affect = affect or "INDIVIDUAL"
        impact = impact or "LOVING"
    return ActAnnotation(
        novel_id=novel_id,
        index=index,
        status="ok",
        stage1=stage1,
        stage2=stage2,
        final_label=final,
        affect=affect,
        impact=impact,
        cache_key="k" * 64,
    )
