package repro.index

import repro.ml.Vec

/** Exhaustive exact k-NN over d-dimensional vectors — our FAISS substitute,
  * the equivalent of `IndexFlatL2`. Immutable after construction and
  * serializable, so it rides Spark broadcasts into the S-side retrieval scan.
  */
final class ExactIndex(idsIn: Array[Int], vecsIn: Array[Array[Double]]) extends Serializable {
  require(idsIn.length == vecsIn.length, "ids/vectors length mismatch")
  private val ids = idsIn
  private val vecs = vecsIn

  /** Number of indexed vectors. */
  def size: Int = ids.length

  /** The `k` nearest ids by squared L2 distance, ascending; ties keep
    * insertion order.
    */
  def search(q: Array[Double], k: Int): Array[(Int, Double)] = {
    val top = new ExactIndex.TopK(math.min(k, size))
    var i = 0
    while (i < vecs.length) {
      top.offer(ids(i), Vec.distSq(q, vecs(i)))
      i += 1
    }
    top.result()
  }
}

object ExactIndex {
  /** Bounded ascending top-k accumulator (insertion into a small array —
    * faster than a heap for the k ≤ 20 used throughout the paper).
    */
  private final class TopK(k: Int) {
    val ids = new Array[Int](k)
    val ds  = Array.fill(k)(Double.MaxValue)
    var n = 0

    def offer(id: Int, d: Double): Unit = {
      if (n == k && d >= ds(k - 1)) return
      var i = math.min(n, k - 1)
      while (i > 0 && ds(i - 1) > d) {
        if (i < k) { ds(i) = ds(i - 1); ids(i) = ids(i - 1) }
        i -= 1
      }
      ds(i) = d; ids(i) = id
      if (n < k) n += 1
    }

    def result(): Array[(Int, Double)] = Array.tabulate(n)(i => (ids(i), ds(i)))
  }
}
