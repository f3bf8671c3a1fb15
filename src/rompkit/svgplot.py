"""Minimal SVG line plots, no plotting stack required.

Produces a standalone SVG document with axes, tick labels, one polyline per
series, and a legend.  Output is deterministic for identical input.
"""

import math
import sys

__all__ = ["line_plot"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_HALF_MAX = sys.float_info.max / 2


def _escape(text):
    """``text`` with ``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape`` writes them.

    Written out because that module imports ``urllib.request`` and with it
    ``http.client``, ``ssl``, ``socket`` and ``email``.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _half_range(values, pad=0.0):
    """Half the [min, max] range of ``values``, padded by ``pad`` of its width on each side; halving is exact, so
    no width overflows.  The range stays within half the float range, and an empty one is widened by at least
    2**-48 of its magnitude, so its five ticks stay distinct."""
    lo, hi = min(values) / 2, max(values) / 2
    if hi == lo:
        step = max(0.5, abs(lo) * 2.0**-48)
        lo = min(lo, _HALF_MAX - step)
        hi = lo + step
    margin = pad * (hi - lo)
    return max(lo - margin, -_HALF_MAX), min(hi + margin, _HALF_MAX)


def _ticks(lo, hi, count=5):
    step = (hi - lo) / (count - 1)
    return [min(lo + i * step, _HALF_MAX) for i in range(count)]


def _fmt(value):
    text = f"{value:.4g}"
    return text if math.isfinite(float(text)) else repr(value)  # 4 digits round up past the largest float


def line_plot(series, title="", x_label="", y_label=""):
    """Render ``series`` as a 720x480 SVG string.

    series : list of (label, points) where points is a list of (x, y) pairs;
             points with a None y are skipped.
    """
    margin_left, margin_right, margin_top, margin_bottom = 70, 160, 48, 56
    width, height = 720, 480
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    cleaned = [(label, [(float(x), float(y)) for x, y in points if y is not None]) for label, points in series]
    all_pts = [p for _, pts in cleaned for p in pts] or [(0.0, 0.0), (1.0, 1.0)]
    # Axis ranges, ticks and the positions px and py take are all halves.
    x_lo, x_hi = _half_range([p[0] for p in all_pts])
    y_lo, y_hi = _half_range([p[1] for p in all_pts], pad=0.05)

    def px(x):
        return margin_left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return margin_top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">'
    )
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')
    out.append(
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    if title:
        out.append(
            f'<text x="{margin_left + plot_w / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{_escape(title)}</text>'
        )
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        out.append(
            f'<line x1="{x:.2f}" y1="{margin_top + plot_h}" x2="{x:.2f}" '
            f'y2="{margin_top + plot_h + 5}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{margin_top + plot_h + 20}" text-anchor="middle">{_fmt(2 * tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        out.append(
            f'<line x1="{margin_left - 5}" y1="{y:.2f}" x2="{margin_left}" y2="{y:.2f}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{margin_left - 9}" y="{y + 4:.2f}" text-anchor="end">{_fmt(2 * ty)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{margin_left + plot_w / 2:.1f}" y="{height - 12}" '
            f'text-anchor="middle">{_escape(x_label)}</text>'
        )
    if y_label:
        cx, cy = 18, margin_top + plot_h / 2
        out.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{_escape(y_label)}</text>'
        )
    for i, (label, pts) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        if pts:
            coords = " ".join(f"{px(x / 2):.2f},{py(y / 2):.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
            for x, y in pts:
                out.append(f'<circle cx="{px(x / 2):.2f}" cy="{py(y / 2):.2f}" r="2.6" fill="{color}"/>')
        ly = margin_top + 14 + 18 * i
        lx = margin_left + plot_w + 16
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        out.append(f'<text x="{lx + 28}" y="{ly}">{_escape(str(label))}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
