package repro.core

import repro.text.Tokenizer

/** The string-set pair featurizer as it was before per-record profiles,
  * kept verbatim as the reference the profile path must equal bit for bit.
  */
final class ReferencePairFeaturizer(idf: Map[String, Double]) extends Serializable {
  private val defaultIdf: Double =
    if (idf.isEmpty) 1.0 else idf.values.max // unseen tokens are maximally rare

  private def w(t: String): Double = idf.getOrElse(t, defaultIdf)

  def scalars(rAttrs: Seq[String], sAttrs: Seq[String]): Array[Double] = {
    val rToks = Tokenizer.recordTokens(rAttrs).toSet
    val sToks = Tokenizer.recordTokens(sAttrs).toSet
    val rGrams = rToks.flatMap(Tokenizer.trigrams)
    val sGrams = sToks.flatMap(Tokenizer.trigrams)
    val inter = rToks.intersect(sToks)
    val union = rToks.union(sToks)
    val idfJac =
      if (union.isEmpty) 0.0
      else inter.iterator.map(w).sum / union.iterator.map(w).sum
    val rDigit = rToks.filter(_.exists(_.isDigit))
    val sDigit = sToks.filter(_.exists(_.isDigit))
    val digitAgree =
      if (rDigit.isEmpty || sDigit.isEmpty) 0.5                       // no evidence
      else if (rDigit.intersect(sDigit).nonEmpty) 1.0                 // aligned ids
      else 0.0                                                        // conflicting ids
    // continuous model-number alignment: exact id 1.0, typo'd id ~0.7,
    // a *different* id ~0.1 — the "attention on the edition/model token"
    val digitSim =
      if (rDigit.isEmpty || sDigit.isEmpty) 0.5
      else {
        val sSets = sDigit.toSeq.map(t => Tokenizer.trigrams(t).toSet)
        rDigit.iterator.map { t =>
          val g = Tokenizer.trigrams(t).toSet
          sSets.map(Tokenizer.jaccard(g, _)).max
        }.max
      }
    Array(
      Tokenizer.jaccard(rToks, sToks),
      Tokenizer.overlap(rToks, sToks),
      Tokenizer.jaccard(rGrams, sGrams),
      idfJac,
      digitAgree,
      digitSim,
      (alignScore(rToks, sToks) + alignScore(sToks, rToks)) / 2.0,
    )
  }

  /** IDF-weighted greedy token alignment: for each token of `a`, its best
    * trigram-Jaccard partner in `b` — typos keep high alignment, replaced
    * tokens do not. The proxy for soft cross-attention over token pairs.
    */
  private def alignScore(a: Set[String], b: Set[String]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val bSets = b.toSeq.map(t => Tokenizer.trigrams(t).toSet)
    var num = 0.0; var den = 0.0
    a.foreach { t =>
      val g = Tokenizer.trigrams(t).toSet
      val best = bSets.map(Tokenizer.jaccard(g, _)).max
      val wt = w(t)
      num += wt * best; den += wt
    }
    num / den
  }
}
