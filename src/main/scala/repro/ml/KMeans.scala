package repro.ml

import repro.util.Rnd

/** k-means++ seeding (Arthur & Vassilvitskii), driver-side: BADGE example
  * selection seeds k-means++ on gradient embeddings and takes the chosen
  * seeds as the query batch.
  */
object KMeans {

  /** k-means++ seeding: returns indices of `k` chosen points. This is exactly
    * the BADGE selection rule — the seeds themselves are the batch.
    */
  def ppSeeds(points: IndexedSeq[Array[Double]], k: Int, seed: Long): Array[Int] = {
    require(points.nonEmpty, "kmeans++ on empty point set")
    val g = new Rnd.Gen(seed)
    val n = points.length
    val kk = math.min(k, n)
    val chosen = new Array[Int](kk)
    chosen(0) = g.nextInt(n)
    val d2 = Array.tabulate(n)(i => Vec.distSq(points(i), points(chosen(0))))
    var c = 1
    while (c < kk) {
      val total = d2.sum
      val idx =
        if (total <= 0.0) g.nextInt(n) // all remaining points identical
        else {
          var r = g.nextDouble() * total
          var i = 0
          while (i < n - 1 && r >= d2(i)) { r -= d2(i); i += 1 }
          i
        }
      chosen(c) = idx
      var i = 0
      while (i < n) {
        val d = Vec.distSq(points(i), points(idx))
        if (d < d2(i)) d2(i) = d
        i += 1
      }
      c += 1
    }
    chosen
  }
}
