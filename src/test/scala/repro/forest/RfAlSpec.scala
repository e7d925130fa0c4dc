package repro.forest

import repro.SparkSpec
import repro.core.RunDigest
import repro.data.ERDataGen

class RfAlSpec extends SparkSpec {

  test("RF+QBC run on W-A matches its golden digest") {
    val r = RfAl.run(spark, ERDataGen.walmartAmazon(scale = 0.1), rounds = 2)
    assert(r.method == "Random Forest")
    assert(r.roundStats.length == 3)
    // every candidate voted a duplicate is predicted, also several of one R
    // record (the Spark-scored version kept one per R record: 32f14ac3f581cfb8)
    assert(RunDigest(r) == "05e7746e37b8ef2c")
  }
}
