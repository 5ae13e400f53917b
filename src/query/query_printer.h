// Renders queries back into the paper's textual form. Round-trips with
// ParseQuery (modulo whitespace).
#ifndef SQOPT_QUERY_QUERY_PRINTER_H_
#define SQOPT_QUERY_QUERY_PRINTER_H_

#include <string>

#include "query/query.h"

namespace sqopt {

// Single-line form:
//   (SELECT {a, b} {j} {s} {rels} {classes})
std::string PrintQuery(const Schema& schema, const Query& query);

// Multi-line indented form for logs and examples.
std::string PrintQueryPretty(const Schema& schema, const Query& query);

// Canonical cache key: the single-line form of the Normalize()d query
// with the projection left in the caller's order (it fixes the result's
// column order). Two query texts that differ only in the order of
// their predicates, relationships or classes, or in whitespace, map to
// the same key, so the plan cache coalesces them onto one entry.
std::string CanonicalQueryKey(const Schema& schema, const Query& query);

}  // namespace sqopt

#endif  // SQOPT_QUERY_QUERY_PRINTER_H_
