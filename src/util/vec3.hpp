#pragma once

// Small fixed-size 3-vector used throughout the particle pipeline.
// Deliberately minimal: value semantics, constexpr-friendly, no dependencies.

#include <cmath>
#include <ostream>

namespace hacc::util {

template <typename T>
struct Vec3 {
  T x{}, y{}, z{};

  constexpr Vec3() = default;
  constexpr Vec3(T x_, T y_, T z_) : x(x_), y(y_), z(z_) {}
  explicit constexpr Vec3(T s) : x(s), y(s), z(s) {}

  constexpr T& operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }
  constexpr const T& operator[](int i) const { return i == 0 ? x : (i == 1 ? y : z); }

  constexpr Vec3& operator+=(const Vec3& o) { x += o.x; y += o.y; z += o.z; return *this; }
  constexpr Vec3& operator-=(const Vec3& o) { x -= o.x; y -= o.y; z -= o.z; return *this; }
  constexpr Vec3& operator*=(T s) { x *= s; y *= s; z *= s; return *this; }
  constexpr Vec3& operator/=(T s) { x /= s; y /= s; z /= s; return *this; }

  friend constexpr Vec3 operator+(Vec3 a, const Vec3& b) { return a += b; }
  friend constexpr Vec3 operator-(Vec3 a, const Vec3& b) { return a -= b; }
  friend constexpr Vec3 operator*(Vec3 a, T s) { return a *= s; }
  friend constexpr Vec3 operator*(T s, Vec3 a) { return a *= s; }
  friend constexpr Vec3 operator/(Vec3 a, T s) { return a /= s; }
  friend constexpr Vec3 operator-(const Vec3& a) { return {-a.x, -a.y, -a.z}; }
  friend constexpr bool operator==(const Vec3&, const Vec3&) = default;

  friend constexpr T dot(const Vec3& a, const Vec3& b) {
    return a.x * b.x + a.y * b.y + a.z * b.z;
  }
  friend constexpr Vec3 cross(const Vec3& a, const Vec3& b) {
    return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
  }
  friend T norm(const Vec3& a) {
    using std::sqrt;  // a vector lane type brings its own sqrt
    return sqrt(dot(a, a));
  }
  friend constexpr T norm2(const Vec3& a) { return dot(a, a); }

  friend std::ostream& operator<<(std::ostream& os, const Vec3& v) {
    return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
  }
};

using Vec3f = Vec3<float>;
using Vec3d = Vec3<double>;

// Symmetric 3x3 matrix (for the CRK second moment m2 and its inverse).
template <typename T>
struct Sym3 {
  // Stored as [xx, xy, xz, yy, yz, zz].
  T xx{}, xy{}, xz{}, yy{}, yz{}, zz{};

  constexpr Sym3& operator+=(const Sym3& o) {
    xx += o.xx; xy += o.xy; xz += o.xz; yy += o.yy; yz += o.yz; zz += o.zz;
    return *this;
  }
  constexpr Sym3& operator*=(T s) {
    xx *= s; xy *= s; xz *= s; yy *= s; yz *= s; zz *= s;
    return *this;
  }
  friend constexpr Sym3 operator+(Sym3 a, const Sym3& b) { return a += b; }
  friend constexpr Sym3 operator*(Sym3 a, T s) { return a *= s; }

  // Outer product contribution x ⊗ x.
  static constexpr Sym3 outer(const Vec3<T>& v) {
    return {v.x * v.x, v.x * v.y, v.x * v.z, v.y * v.y, v.y * v.z, v.z * v.z};
  }

  constexpr T det() const {
    return xx * (yy * zz - yz * yz) - xy * (xy * zz - yz * xz) +
           xz * (xy * yz - yy * xz);
  }

  // Inverse via adjugate; returns false (and leaves out untouched) when the
  // matrix is numerically singular.
  bool inverse(Sym3& out, T eps = T(1e-12)) const {
    const T d = det();
    const T scale = std::abs(xx) + std::abs(yy) + std::abs(zz);
    if (std::abs(d) <= eps * std::max(scale * scale * scale, T(1))) return false;
    const T inv = T(1) / d;
    out.xx = (yy * zz - yz * yz) * inv;
    out.xy = (xz * yz - xy * zz) * inv;
    out.xz = (xy * yz - xz * yy) * inv;
    out.yy = (xx * zz - xz * xz) * inv;
    out.yz = (xy * xz - xx * yz) * inv;
    out.zz = (xx * yy - xy * xy) * inv;
    return true;
  }

  friend constexpr Vec3<T> operator*(const Sym3& m, const Vec3<T>& v) {
    return {m.xx * v.x + m.xy * v.y + m.xz * v.z,
            m.xy * v.x + m.yy * v.y + m.yz * v.z,
            m.xz * v.x + m.yz * v.y + m.zz * v.z};
  }
};

using Sym3f = Sym3<float>;
using Sym3d = Sym3<double>;

}  // namespace hacc::util
