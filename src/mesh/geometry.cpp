#include "mesh/geometry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace adarnet::mesh {

double ChannelGeometry::wall_distance(double, double y) const {
  return std::max(0.0, std::min(y, height_ - y));
}

double FlatPlateGeometry::wall_distance(double x, double y) const {
  if (x >= plate_start_) return std::max(0.0, y);
  const double dx = plate_start_ - x;
  return std::sqrt(dx * dx + y * y);
}

PolygonBody::PolygonBody(std::string name, std::vector<Point> boundary)
    : name_(std::move(name)), boundary_(std::move(boundary)) {
  min_x_ = min_y_ = std::numeric_limits<double>::max();
  max_x_ = max_y_ = std::numeric_limits<double>::lowest();
  for (const Point& p : boundary_) {
    min_x_ = std::min(min_x_, p.x);
    max_x_ = std::max(max_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_y_ = std::max(max_y_, p.y);
    scale_ = std::max({scale_, std::fabs(p.x), std::fabs(p.y)});
  }
  constexpr std::size_t kChunk = 16;
  const std::size_t n = boundary_.size();
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    Chunk c;
    c.begin = begin;
    c.end = std::min(n, begin + kChunk);
    const Point& first = boundary_[begin == 0 ? n - 1 : begin - 1];
    c.min_x = c.max_x = first.x;
    c.min_y = c.max_y = first.y;
    for (std::size_t i = begin; i < c.end; ++i) {
      c.min_x = std::min(c.min_x, boundary_[i].x);
      c.max_x = std::max(c.max_x, boundary_[i].x);
      c.min_y = std::min(c.min_y, boundary_[i].y);
      c.max_y = std::max(c.max_y, boundary_[i].y);
    }
    chunks_.push_back(c);
  }
}

bool PolygonBody::inside(double x, double y) const {
  if (x < min_x_ || x > max_x_ || y < min_y_ || y > max_y_) return false;
  // Even-odd ray casting along +x. A chunk whose end points all lie at or
  // above y, or all below it, has no segment with (a.y > y) != (b.y > y):
  // skipping it changes no crossing.
  bool in = false;
  const std::size_t n = boundary_.size();
  for (const Chunk& c : chunks_) {
    if (y >= c.max_y || y < c.min_y) continue;
    for (std::size_t i = c.begin; i < c.end; ++i) {
      const Point& a = boundary_[i];
      const Point& b = boundary_[i == 0 ? n - 1 : i - 1];
      const bool crosses = (a.y > y) != (b.y > y);
      if (crosses) {
        const double x_int = (b.x - a.x) * (y - a.y) / (b.y - a.y) + a.x;
        if (x < x_int) in = !in;
      }
    }
  }
  return in;
}

namespace {

// Squared distance from (x, y) to segment ab.
double dist2_point_segment(double x, double y, const Point& a,
                           const Point& b) {
  const double vx = b.x - a.x;
  const double vy = b.y - a.y;
  const double wx = x - a.x;
  const double wy = y - a.y;
  const double vv = vx * vx + vy * vy;
  double t = vv > 0.0 ? (wx * vx + wy * vy) / vv : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  const double dx = wx - t * vx;
  const double dy = wy - t * vy;
  return dx * dx + dy * dy;
}

// Squared distance from (x, y) to an axis-aligned box (0 inside it).
double dist2_point_box(double x, double y, double min_x, double max_x,
                       double min_y, double max_y) {
  const double dx = std::max({min_x - x, 0.0, x - max_x});
  const double dy = std::max({min_y - y, 0.0, y - max_y});
  return dx * dx + dy * dy;
}

}  // namespace

double PolygonBody::wall_distance(double x, double y) const {
  const std::size_t n = boundary_.size();
  if (n == 0) return std::numeric_limits<double>::max();
  // The root is monotone and correctly rounded, so the root of the least
  // squared distance is bitwise the least distance. The chunk nearest
  // (x, y) goes first; another chunk is scanned only when its box is
  // within the best distance so far plus a slack that dwarfs the
  // rounding of both distances (a few ulps of the coordinates' scale),
  // so a skipped chunk never holds the minimum.
  auto box2 = [&](const Chunk& c) {
    return dist2_point_box(x, y, c.min_x, c.max_x, c.min_y, c.max_y);
  };
  auto scan = [&](const Chunk& c, double best2) {
    for (std::size_t i = c.begin; i < c.end; ++i) {
      best2 = std::min(best2, dist2_point_segment(
                                  x, y, boundary_[i == 0 ? n - 1 : i - 1],
                                  boundary_[i]));
    }
    return best2;
  };
  std::size_t nearest = 0;
  for (std::size_t c = 1; c < chunks_.size(); ++c) {
    if (box2(chunks_[c]) < box2(chunks_[nearest])) nearest = c;
  }
  double best2 = scan(chunks_[nearest], std::numeric_limits<double>::max());
  const double slack =
      1e-9 * (1.0 + std::fabs(x) + std::fabs(y) + scale_);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    if (c == nearest) continue;
    const double reach = std::sqrt(best2) + slack;
    if (box2(chunks_[c]) > reach * reach) continue;
    best2 = scan(chunks_[c], best2);
  }
  return std::sqrt(best2);
}

std::shared_ptr<PolygonBody> make_ellipse(double chord, double aspect,
                                          double alpha_deg, double theta_deg,
                                          double cx, double cy, int segments) {
  const double a = 0.5 * chord;           // semi-major axis
  const double b = 0.5 * chord * aspect;  // semi-minor axis
  const double angle =
      (alpha_deg + theta_deg) * std::numbers::pi / 180.0;
  const double ca = std::cos(angle);
  const double sa = std::sin(angle);
  std::vector<Point> pts;
  pts.reserve(segments);
  for (int k = 0; k < segments; ++k) {
    const double t = 2.0 * std::numbers::pi * k / segments;
    const double ex = a * std::cos(t);
    const double ey = b * std::sin(t);
    // Positive angle of attack pitches the nose up: rotate by -angle.
    pts.push_back({cx + ex * ca + ey * sa, cy - ex * sa + ey * ca});
  }
  std::string name = aspect >= 0.999 ? "cylinder" : "ellipse";
  auto body = std::make_shared<PolygonBody>(std::move(name), std::move(pts));
  // Slender ellipses need thin-body capture; bluff ones do not.
  if (aspect < 0.2) body->set_capture_half_width(0.45);
  return body;
}

std::shared_ptr<PolygonBody> make_naca4(double chord, double m, double p,
                                        double t, double alpha_deg, double cx,
                                        double cy, int segments) {
  // Thickness distribution (closed trailing edge variant).
  auto thickness = [&](double xc) {
    return 5.0 * t *
           (0.2969 * std::sqrt(xc) - 0.1260 * xc - 0.3516 * xc * xc +
            0.2843 * xc * xc * xc - 0.1036 * xc * xc * xc * xc);
  };
  auto camber = [&](double xc) {
    if (m <= 0.0 || p <= 0.0) return 0.0;
    if (xc < p) return m / (p * p) * (2.0 * p * xc - xc * xc);
    return m / ((1.0 - p) * (1.0 - p)) *
           ((1.0 - 2.0 * p) + 2.0 * p * xc - xc * xc);
  };
  auto camber_slope = [&](double xc) {
    if (m <= 0.0 || p <= 0.0) return 0.0;
    if (xc < p) return 2.0 * m / (p * p) * (p - xc);
    return 2.0 * m / ((1.0 - p) * (1.0 - p)) * (p - xc);
  };

  const int half = std::max(8, segments / 2);
  std::vector<Point> upper, lower;
  upper.reserve(half + 1);
  lower.reserve(half + 1);
  for (int k = 0; k <= half; ++k) {
    // Cosine spacing clusters points at the leading/trailing edges.
    const double beta = std::numbers::pi * k / half;
    const double xc = 0.5 * (1.0 - std::cos(beta));
    const double yt = thickness(xc);
    const double yc = camber(xc);
    const double th = std::atan(camber_slope(xc));
    upper.push_back({xc - yt * std::sin(th), yc + yt * std::cos(th)});
    lower.push_back({xc + yt * std::sin(th), yc - yt * std::cos(th)});
  }
  // Walk trailing edge -> leading edge on the upper surface, then leading ->
  // trailing on the lower surface to form a closed loop.
  std::vector<Point> loop;
  loop.reserve(2 * half);
  for (int k = half; k >= 0; --k) loop.push_back(upper[k]);
  for (int k = 1; k < half; ++k) loop.push_back(lower[k]);

  const double angle = alpha_deg * std::numbers::pi / 180.0;
  const double ca = std::cos(angle);
  const double sa = std::sin(angle);
  const double x0 = cx - 0.5 * chord;  // leading edge position
  std::vector<Point> pts;
  pts.reserve(loop.size());
  for (const Point& q : loop) {
    // Scale by chord, rotate about the quarter-chord point, translate.
    const double px = (q.x - 0.25) * chord;
    const double py = q.y * chord;
    pts.push_back({x0 + 0.25 * chord + px * ca + py * sa,
                   cy - px * sa + py * ca});
  }
  const char* name = m > 0.0 ? "naca1412" : "naca0012";
  auto body = std::make_shared<PolygonBody>(name, std::move(pts));
  body->set_capture_half_width(0.45);  // 12% thickness: thin at coarse grids
  return body;
}

}  // namespace adarnet::mesh
