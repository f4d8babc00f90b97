//! Planar geometry for cell placement.

use serde::Serialize;
use std::fmt;
use wavemin_cells::units::Microns;

/// A placement location in microns.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Microns,
    /// Vertical coordinate.
    pub y: Microns,
}

impl Point {
    /// Creates a point from raw micron values.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self {
            x: Microns::new(x),
            y: Microns::new(y),
        }
    }

    /// Manhattan (rectilinear) distance — the routed wirelength metric.
    ///
    /// ```
    /// use wavemin_clocktree::Point;
    /// let d = Point::new(0.0, 0.0).manhattan(Point::new(3.0, 4.0));
    /// assert_eq!(d.value(), 7.0);
    /// ```
    #[must_use]
    pub fn manhattan(&self, other: Point) -> Microns {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Euclidean distance (used only for clustering heuristics).
    #[must_use]
    pub fn euclidean(&self, other: Point) -> Microns {
        Microns::new((self.x - other.x).value().hypot((self.y - other.y).value()))
    }

    /// The midpoint of two points.
    #[must_use]
    pub fn midpoint(&self, other: Point) -> Point {
        Point {
            x: (self.x + other.x) / 2.0,
            y: (self.y + other.y) / 2.0,
        }
    }

    /// The centroid of a set of points.
    ///
    /// Returns the origin for an empty set.
    #[must_use]
    pub fn centroid<'a, I: IntoIterator<Item = &'a Point>>(points: I) -> Point {
        let mut n = 0usize;
        let (mut sx, mut sy) = (0.0, 0.0);
        for p in points {
            sx += p.x.value();
            sy += p.y.value();
            n += 1;
        }
        if n == 0 {
            Point::default()
        } else {
            Point::new(sx / n as f64, sy / n as f64)
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x.value(), self.y.value())
    }
}

/// An axis-aligned rectangle in microns.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle; the corners are normalized so that
    /// `min <= max` componentwise.
    #[must_use]
    pub fn new(a: Point, b: Point) -> Self {
        Self {
            min: Point {
                x: a.x.min(b.x),
                y: a.y.min(b.y),
            },
            max: Point {
                x: a.x.max(b.x),
                y: a.y.max(b.y),
            },
        }
    }

    /// A square die with lower-left at the origin.
    #[must_use]
    pub fn die(side: Microns) -> Self {
        Self::new(Point::default(), Point { x: side, y: side })
    }

    /// `true` when the point lies inside or on the boundary.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The smallest rectangle covering a set of points (origin-sized for an
    /// empty set).
    #[must_use]
    pub fn bounding<'a, I: IntoIterator<Item = &'a Point>>(points: I) -> Rect {
        let mut iter = points.into_iter();
        let Some(first) = iter.next() else {
            return Rect::default();
        };
        let mut r = Rect::new(*first, *first);
        for p in iter {
            r.min.x = r.min.x.min(p.x);
            r.min.y = r.min.y.min(p.y);
            r.max.x = r.max.x.max(p.x);
            r.max.y = r.max.y.max(p.y);
        }
        r
    }

    /// Width of the rectangle.
    #[must_use]
    pub fn width(&self) -> Microns {
        self.max.x - self.min.x
    }

    /// Height of the rectangle.
    #[must_use]
    pub fn height(&self) -> Microns {
        self.max.y - self.min.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_and_euclidean() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.manhattan(b).value(), 7.0);
        assert_eq!(a.euclidean(b).value(), 5.0);
        assert_eq!(a.manhattan(a).value(), 0.0);
    }

    #[test]
    fn midpoint_and_centroid() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 8.0);
        let m = a.midpoint(b);
        assert_eq!((m.x.value(), m.y.value()), (2.0, 4.0));
        let pts = [a, b, Point::new(2.0, 4.0)];
        let c = Point::centroid(&pts);
        assert_eq!((c.x.value(), c.y.value()), (2.0, 4.0));
        assert_eq!(Point::centroid([].iter()), Point::default());
    }

    #[test]
    fn rect_normalizes_corners() {
        let r = Rect::new(Point::new(5.0, 1.0), Point::new(1.0, 5.0));
        assert_eq!(r.min.x.value(), 1.0);
        assert_eq!(r.max.x.value(), 5.0);
        assert_eq!(r.width().value(), 4.0);
        assert_eq!(r.height().value(), 4.0);
    }

    #[test]
    fn rect_contains_boundary() {
        let r = Rect::die(Microns::new(10.0));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
    }

    #[test]
    fn bounding_box_covers_points() {
        let pts = [
            Point::new(3.0, 7.0),
            Point::new(-1.0, 2.0),
            Point::new(5.0, 4.0),
        ];
        let r = Rect::bounding(&pts);
        for p in &pts {
            assert!(r.contains(*p));
        }
        assert_eq!(r.min.x.value(), -1.0);
        assert_eq!(r.max.y.value(), 7.0);
    }
}
