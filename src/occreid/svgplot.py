"""Minimal SVG line plots, dependency-free and byte-deterministic."""

from __future__ import annotations

from .fileio import write_lines

_PALETTE = ("#1f6fb2", "#d1495b", "#3a9e5f", "#8a5fbf", "#c98a1e", "#4aa3a3")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 16, 28, 44
_WIDTH, _HEIGHT = 640, 420
_TICKS = 5


def _ticks(lo: float, hi: float) -> list:
    step = (hi - lo) / (_TICKS - 1)
    return [lo + i * step for i in range(_TICKS)]


def line_plot(series, path, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write a line plot to `path`. series is a list of (label, xs, ys)."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#555"/>',
    ]
    if title:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle">{title}</text>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#555"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 16}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{_MARGIN_L - 4}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" stroke="#555"/>')
        out.append(f'<text x="{_MARGIN_L - 7}" y="{y + 3.5:.2f}" text-anchor="end">{t:g}</text>')
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="14" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {_MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
        )
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 14 * k
        lx = _MARGIN_L + plot_w - 130
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 23}" y="{ly}">{label}</text>')
    out.append("</svg>")
    write_lines(path, out)
