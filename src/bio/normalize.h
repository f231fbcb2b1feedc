#ifndef GSB_BIO_NORMALIZE_H
#define GSB_BIO_NORMALIZE_H

/// \file normalize.h
/// Expression normalization — the first stage of the paper's pipeline
/// ("raw microarray data after normalization ...").

#include "bio/expression.h"

namespace gsb::bio {

/// Standardizes each gene's profile to mean 0 / sample stddev 1 in place.
/// Constant rows become all zeros.
void zscore_rows(ExpressionMatrix& matrix);

/// Quantile normalization across samples (columns): forces every sample to
/// share one empirical distribution (the cross-array calibration used for
/// Affymetrix data).  Each sample's genes are ranked by value with
/// radix_order (bio/radix_order.h), and the gene at rank r takes the mean
/// of the rank-r values over all samples.  Tied values are not averaged:
/// tied genes take consecutive reference values in gene-index order (the
/// lower gene index takes the lower rank; -0.0 ties +0.0).  \p threads
/// workers sort and scatter disjoint columns and sum disjoint rank ranges
/// (0 = hardware concurrency, 1 = sequential); every value is summed in
/// sample order, so the result is bit-identical at every thread count.
void quantile_normalize(ExpressionMatrix& matrix, std::size_t threads = 1);

/// log2(x - min + 1) transform per matrix (variance stabilization).
void log2_transform(ExpressionMatrix& matrix);

}  // namespace gsb::bio

#endif  // GSB_BIO_NORMALIZE_H
