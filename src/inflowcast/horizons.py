"""The canonical forecast horizons as (name, first lead day, last lead day), without numpy.

``data.CANONICAL_HORIZONS`` holds them as ``HorizonSpec`` objects, and the
CLI lists their names as its default ``[horizons] names``.
"""

CANONICAL_WINDOWS: tuple[tuple[str, int, int], ...] = (
    ("Forecast Week 1", 1, 7),
    ("Forecast Week 2", 8, 14),
    ("Forecast Week 3", 15, 21),
    ("Forecast Week 4", 22, 28),
    ("Forecast Week 5", 29, 35),
    ("Forecast Week 6", 36, 42),
    ("2 Week Forecast", 1, 14),
    ("3 Week Forecast", 1, 21),
    ("4 Week Forecast", 1, 28),
    ("5 Week Forecast", 1, 35),
    ("6 Week Forecast", 1, 42),
)
