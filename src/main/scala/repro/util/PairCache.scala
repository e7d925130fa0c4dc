package repro.util

import scala.collection.mutable

/** A run-wide cache of a feature vector that is a pure function of a record
  * pair, keyed by (R id, S id). Candidate sets overlap heavily from round to
  * round, so each pair's vector is computed once per run. Not thread-safe:
  * call it from one thread; [[all]] computes its misses in parallel itself.
  */
final class PairCache(compute: (Int, Int) => Array[Double]) {
  private val values = mutable.LongMap.empty[Array[Double]]

  private def key(rId: Int, sId: Int): Long = (rId.toLong << 32) | (sId & 0xffffffffL)

  def apply(rId: Int, sId: Int): Array[Double] =
    values.getOrElseUpdate(key(rId, sId), compute(rId, sId))

  /** The vectors of `pairs` in order, computing the cache misses in parallel. */
  def all(pairs: IndexedSeq[(Int, Int)]): IndexedSeq[Array[Double]] = {
    val misses = pairs.filterNot { case (r, s) => values.contains(key(r, s)) }
    val computed = new Array[Array[Double]](misses.length)
    Par.foreach(misses.length)(i => computed(i) = compute(misses(i)._1, misses(i)._2))
    misses.indices.foreach(i => values(key(misses(i)._1, misses(i)._2)) = computed(i))
    pairs.map { case (r, s) => values(key(r, s)) }
  }
}
