// Immersed-boundary geometry descriptions for the paper's case studies.
//
// The paper runs body-fitted O-grids for the external flows; we substitute a
// Cartesian grid with an immersed solid mask (see DESIGN.md). A Geometry
// answers two questions at arbitrary physical points, which makes masks and
// wall distances exact at every refinement level:
//   * is this point inside a solid body?
//   * how far is this point from the nearest solid wall?
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace adarnet::mesh {

/// A 2D point in physical coordinates (metres).
struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// Abstract solid geometry inside a rectangular domain.
class Geometry {
 public:
  virtual ~Geometry() = default;

  /// True when (x, y) lies inside solid material.
  [[nodiscard]] virtual bool inside(double x, double y) const = 0;

  /// Distance from (x, y) to the nearest solid wall (domain walls included
  /// for wall-bounded cases). Required by the SA model's destruction term.
  [[nodiscard]] virtual double wall_distance(double x, double y) const = 0;

  /// Human-readable name for logging and table rows.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Thin-body capture factor: when positive, a grid cell whose centre
  /// lies within `capture_half_width() * min(dx, dy)` of the body surface
  /// is treated as solid even if the centre itself is outside. Thin bodies
  /// (airfoils, slender ellipses) would otherwise slip between cell
  /// centres at coarse levels and vanish from the mask. Bluff bodies
  /// return 0 (no inflation - keeps the staircase boundary regular).
  [[nodiscard]] virtual double capture_half_width() const { return 0.0; }
};

/// Plane channel: solid walls at y = 0 and y = height; no immersed body.
class ChannelGeometry final : public Geometry {
 public:
  explicit ChannelGeometry(double height) : height_(height) {}
  [[nodiscard]] bool inside(double, double) const override { return false; }
  [[nodiscard]] double wall_distance(double x, double y) const override;
  [[nodiscard]] std::string name() const override { return "channel"; }

 private:
  double height_;
};

/// Flat plate: wall along y = 0 for x >= plate_start; symmetry elsewhere.
class FlatPlateGeometry final : public Geometry {
 public:
  explicit FlatPlateGeometry(double plate_start = 0.0)
      : plate_start_(plate_start) {}
  [[nodiscard]] bool inside(double, double) const override { return false; }
  [[nodiscard]] double wall_distance(double x, double y) const override;
  [[nodiscard]] std::string name() const override { return "flat_plate"; }

 private:
  double plate_start_;
};

/// Closed solid body described by a boundary polygon (immersed boundary).
///
/// `inside` uses even-odd ray casting; `wall_distance` is the exact minimum
/// distance to the boundary polyline. Both visit the boundary in chunks of
/// consecutive segments with bounding boxes and skip chunks that provably
/// cannot change the answer, so they return bitwise what a scan of every
/// segment returns at a fraction of the cost (every mesh evaluates them at
/// each cell centre, ghosts included). Factories below build the paper's
/// bodies: ellipses (training family), the cylinder, and NACA airfoils.
class PolygonBody final : public Geometry {
 public:
  /// Takes ownership of the boundary vertices (closed implicitly: the last
  /// vertex connects back to the first).
  PolygonBody(std::string name, std::vector<Point> boundary);

  [[nodiscard]] bool inside(double x, double y) const override;
  [[nodiscard]] double wall_distance(double x, double y) const override;
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] double capture_half_width() const override {
    return capture_half_width_;
  }

  /// Sets the thin-body capture factor (see Geometry).
  void set_capture_half_width(double factor) { capture_half_width_ = factor; }

  /// Access to the boundary polyline (for force integration and tests).
  [[nodiscard]] const std::vector<Point>& boundary() const { return boundary_; }

 private:
  /// Segments [begin, end) (segment i joins vertex i - 1, cyclically, to
  /// vertex i) and the bounding box of their end points.
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
    double min_x = 0.0, max_x = 0.0, min_y = 0.0, max_y = 0.0;
  };

  std::string name_;
  double capture_half_width_ = 0.0;
  std::vector<Point> boundary_;
  double min_x_, max_x_, min_y_, max_y_;  // bounding box fast path
  double scale_ = 0.0;                    // largest |vertex coordinate|
  std::vector<Chunk> chunks_;
};

/// Ellipse of chord `chord`, thickness ratio `aspect` (minor/major axis),
/// rotated by `alpha_deg` + `theta_deg` degrees (angle of attack + pitch),
/// centred at (cx, cy). aspect = 1 gives the cylinder test geometry.
std::shared_ptr<PolygonBody> make_ellipse(double chord, double aspect,
                                          double alpha_deg, double theta_deg,
                                          double cx, double cy,
                                          int segments = 256);

/// NACA 4-digit airfoil of chord `chord` with camber `m` (fraction of
/// chord), camber position `p` (tenths of chord), thickness `t` (fraction
/// of chord), leading edge at (cx - chord/2, cy), rotated by `alpha_deg`.
/// NACA0012: m=0, p=0, t=0.12. NACA1412: m=0.01, p=0.4, t=0.12.
std::shared_ptr<PolygonBody> make_naca4(double chord, double m, double p,
                                        double t, double alpha_deg, double cx,
                                        double cy, int segments = 200);

}  // namespace adarnet::mesh
